"""Reader for the parenthesized rewrite-system format.

A file is a sequence of sections, in any order, each read once: (VAR x y),
(RULES l -> r ... l ->= r ...), (STRATEGY INNERMOST) and (STARTTERM
CONSTRUCTOR-BASED | FULL).  `->=` marks a weak rule.  INNERMOST sets Q to
all rules, otherwise Q is empty.  Start terms default to basic terms; FULL
means all ground terms.  Defined symbols are the root symbols of left-hand
sides, everything else is a constructor.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional

from .framework import Problem, StartKind
from .terms import App, Rule, Symbol, SymbolKind, Term, Var


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# a token is (kind, text, line, column); punctuation and arrows are their
# own kind, every other word is an IDENT
_Token = tuple[str, str, int, int]
_MARKS = {"(", ")", ",", "->", "->="}
# a newline, punctuation or a word; other white space is skipped
_TOKEN = re.compile(r"(\n)|[(),]|[^\s(),]+")

# a raw term is its name token and its raw arguments: which names are
# variables or defined symbols is known once every section has been read
_RawTerm = tuple[_Token, list]


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        if m.group(1):
            line, line_start = line + 1, m.end()
            continue
        word = m.group()
        kind = word if word in _MARKS else "IDENT"
        out.append((kind, word, line, m.start() - line_start + 1))
    return out


def _sections(tokens: list[_Token]) -> Iterator[tuple[_Token, list[_Token], _Token]]:
    """Each section's name token, its body (the tokens inside its
    parentheses) and its closing parenthesis, in file order."""
    i = 0
    while i < len(tokens):
        kind, text, line, column = tokens[i]
        if kind != "(":
            raise ParseError(f"expected section, found {text!r}", line, column)
        if i + 1 == len(tokens) or tokens[i + 1][0] != "IDENT":
            raise ParseError("expected section name", line, column)
        depth, j = 1, i + 2
        while j < len(tokens) and depth:
            depth += {"(": 1, ")": -1}.get(tokens[j][0], 0)
            j += 1
        if depth:
            raise ParseError("unbalanced parenthesis", *tokens[i + 1][2:])
        yield tokens[i + 1], tokens[i + 2 : j - 1], tokens[j - 1]
        i = j


class _Reader:
    """The tokens of one section body, read front to back."""

    def __init__(self, body: list[_Token], end: _Token) -> None:
        self.body = body
        self.pos = 0
        self.end = end  # the closing parenthesis

    def peek(self) -> Optional[str]:
        """The next token's kind, None at the end."""
        return self.body[self.pos][0] if self.pos < len(self.body) else None

    def next(self, expected: str) -> _Token:
        if self.pos == len(self.body):
            raise ParseError(f"expected {expected}, found end of section", *self.end[2:])
        self.pos += 1
        return self.body[self.pos - 1]

    def expect(self, kind: str, expected: Optional[str] = None) -> _Token:
        tok = self.next(expected or kind)
        if tok[0] != kind:
            raise ParseError(f"expected {expected or kind}, found {tok[1]!r}", *tok[2:])
        return tok

    def term(self) -> _RawTerm:
        name = self.expect("IDENT", "a term")
        args: list[_RawTerm] = []
        if self.peek() == "(":
            self.pos += 1
            args.append(self.term())
            while self.peek() == ",":
                self.pos += 1
                args.append(self.term())
            self.expect(")")
        return name, args


# the sections that set an option: the option's name and its values
_OPTIONS = {
    "STRATEGY": ("strategy", {"INNERMOST": True}),
    "STARTTERM": ("start terms", {"CONSTRUCTOR-BASED": StartKind.BASIC, "FULL": StartKind.ALL}),
}


def parse_problem(text: str) -> Problem:
    variables: set[str] = set()
    raw_rules: list[tuple[_RawTerm, _RawTerm, bool]] = []
    options = {"STRATEGY": False, "STARTTERM": StartKind.BASIC}
    seen: set[str] = set()
    for (_, name, line, column), body, end in _sections(_tokenize(text)):
        if name == "COMMENT":
            continue
        if name in seen:
            raise ParseError(f"duplicate section {name}", line, column)
        seen.add(name)
        reader = _Reader(body, end)
        if name == "VAR":
            while reader.peek() is not None:
                variables.add(reader.expect("IDENT", "a variable")[1])
        elif name == "RULES":
            while reader.peek() is not None:
                lhs = reader.term()
                arrow = reader.next("-> or ->=")
                if arrow[0] not in ("->", "->="):
                    raise ParseError(f"expected -> or ->=, found {arrow[1]!r}", *arrow[2:])
                raw_rules.append((lhs, reader.term(), arrow[0] == "->="))
        elif name in _OPTIONS:
            option, values = _OPTIONS[name]
            _, word, line, column = reader.expect("IDENT", " or ".join(values))
            if word not in values:
                raise ParseError(f"unsupported {option} {word}", line, column)
            if reader.peek() is not None:
                _, extra, line, column = body[reader.pos]
                raise ParseError(f"expected end of section, found {extra!r}", line, column)
            options[name] = values[word]
        else:
            raise ParseError(f"unknown section {name}", line, column)

    defined = {lhs[0][1] for lhs, _, _ in raw_rules}
    symbols: dict[str, Symbol] = {}

    def build(raw: _RawTerm) -> Term:
        (_, name, line, column), args = raw
        if name in variables:
            if args:
                raise ParseError(f"variable {name} used with arguments", line, column)
            return Var(name)
        kind = SymbolKind.DEFINED if name in defined else SymbolKind.CONSTRUCTOR
        sym = symbols.setdefault(name, Symbol(name, len(args), kind))
        if sym.arity != len(args):
            raise ParseError(
                f"symbol {name} used with arity {len(args)} and {sym.arity}", line, column
            )
        return App(sym, tuple(build(a) for a in args))

    strict: list[Rule] = []
    weak: list[Rule] = []
    for index, (lhs, rhs, is_weak) in enumerate(raw_rules):
        label = chr(ord("a") + index) if index < 26 else f"r{index + 1}"
        sides = build(lhs), build(rhs)
        try:
            rule = Rule(*sides, label)
        except ValueError as err:  # Rule's own checks, at the rule's first token
            raise ParseError(str(err), *lhs[0][2:]) from None
        (weak if is_weak else strict).append(rule)

    q = tuple(strict + weak) if options["STRATEGY"] else ()
    return Problem((), tuple(strict), (), tuple(weak), q, options["STARTTERM"])


def parse_file(path: str) -> Problem:
    with open(path, encoding="utf-8") as handle:
        return parse_problem(handle.read())

