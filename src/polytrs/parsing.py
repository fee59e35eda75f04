"""Reader and writer for the parenthesized rewrite-system format.

A file is a sequence of sections: (VAR x y), (RULES l -> r ... l ->= r ...),
(STRATEGY INNERMOST) and (STARTTERM CONSTRUCTOR-BASED | FULL).  `->=` marks a
weak rule.  INNERMOST sets Q to all rules, otherwise Q is empty.  Start terms
default to basic terms; FULL means all ground terms.  Defined symbols are the
root symbols of left-hand sides, everything else is a constructor.
"""

from __future__ import annotations

import re
from typing import Optional, Union

from .framework import Problem, StartKind
from .rewriting import Rule
from .terms import App, Symbol, SymbolKind, Term, Var, render, variables


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

# raw terms: symbol kinds are only known once every rule has been read, so
# a variable is its name and an application is (name, arguments)
_RawTerm = Union[str, tuple[str, list]]


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


def _sections(tokens: list[_Token]) -> list[tuple[_Token, list[_Token]]]:
    """Each section's name token and body, the tokens inside its parentheses."""
    sections = []
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
        sections.append((tokens[i + 1], tokens[i + 2 : j - 1]))
        i = j
    return sections


class _Reader:
    """The tokens of one section body, read front to back."""

    def __init__(
        self, body: list[_Token], end_line: int, variables: set[str], arities: dict[str, int]
    ) -> None:
        self.body = body
        self.pos = 0
        self.end_line = end_line
        self.variables = variables
        self.arities = arities  # shared by every section, names to arities

    def peek(self) -> Optional[str]:
        """The next token's kind, None at the end."""
        return self.body[self.pos][0] if self.pos < len(self.body) else None

    def next(self, expected: str) -> _Token:
        if self.pos == len(self.body):
            raise ParseError(f"expected {expected}, found end of section", self.end_line, 1)
        self.pos += 1
        return self.body[self.pos - 1]

    def expect(self, kind: str, expected: Optional[str] = None) -> _Token:
        tok = self.next(expected or kind)
        if tok[0] != kind:
            raise ParseError(f"expected {expected or kind}, found {tok[1]!r}", *tok[2:])
        return tok

    def term(self) -> _RawTerm:
        _, name, line, column = self.expect("IDENT", "a term")
        args: list[_RawTerm] = []
        if self.peek() == "(":
            self.pos += 1
            args.append(self.term())
            while self.peek() == ",":
                self.pos += 1
                args.append(self.term())
            self.expect(")")
        if name in self.variables:
            if args:
                raise ParseError(f"variable {name} used with arguments", line, column)
            return name
        seen = self.arities.setdefault(name, len(args))
        if seen != len(args):
            raise ParseError(
                f"symbol {name} used with arity {len(args)} and {seen}", line, column
            )
        return (name, args)


# the sections that set an option: the option's name and its values
_START = {"CONSTRUCTOR-BASED": StartKind.BASIC, "FULL": StartKind.ALL}
_OPTIONS = {
    "STRATEGY": ("strategy", {"INNERMOST": True}),
    "STARTTERM": ("start terms", _START),
}


def parse_problem(text: str) -> Problem:
    tokens = _tokenize(text)
    end_line = tokens[-1][2] if tokens else 1
    sections = _sections(tokens)
    declared: set[str] = set()  # the variables
    seen: set[str] = set()
    for (_, name, line, column), body in sections:
        if name == "COMMENT":
            continue
        if name in seen:
            raise ParseError(f"duplicate section {name}", line, column)
        seen.add(name)
        if name == "VAR":
            reader = _Reader(body, end_line, declared, {})
            while reader.peek() is not None:
                declared.add(reader.expect("IDENT")[1])
        elif name != "RULES" and name not in _OPTIONS:
            raise ParseError(f"unknown section {name}", line, column)

    arities: dict[str, int] = {}
    raw_rules: list[tuple[_RawTerm, _RawTerm, bool, _Token]] = []
    options = {"STRATEGY": False, "STARTTERM": StartKind.BASIC}
    for (_, name, _, _), body in sections:
        reader = _Reader(body, end_line, declared, arities)
        if name == "RULES":
            while reader.peek() is not None:
                at = body[reader.pos]
                lhs = reader.term()
                arrow = reader.next("-> or ->=")
                if arrow[0] not in ("->", "->="):
                    raise ParseError(f"expected -> or ->=, found {arrow[1]!r}", *arrow[2:])
                raw_rules.append((lhs, reader.term(), arrow[0] == "->=", at))
        elif name in _OPTIONS:
            _, word, line, column = reader.expect("IDENT")
            option, values = _OPTIONS[name]
            if word not in values:
                raise ParseError(f"unsupported {option} {word}", line, column)
            options[name] = values[word]

    defined = {lhs[0] for lhs, _, _, _ in raw_rules if type(lhs) is tuple}
    symbols = {
        name: Symbol(
            name, arity, SymbolKind.DEFINED if name in defined else SymbolKind.CONSTRUCTOR
        )
        for name, arity in arities.items()
    }

    def build(raw: _RawTerm) -> Term:
        if type(raw) is str:
            return Var(raw)
        return App(symbols[raw[0]], tuple(build(a) for a in raw[1]))

    strict: list[Rule] = []
    weak: list[Rule] = []
    for index, (raw_lhs, raw_rhs, is_weak, (_, _, line, column)) in enumerate(raw_rules):
        if type(raw_lhs) is str:
            raise ParseError("left-hand side is a variable", line, column)
        lhs, rhs = build(raw_lhs), build(raw_rhs)
        extra = sorted(set(variables(rhs)) - set(variables(lhs)))
        if extra:
            raise ParseError(f"right-hand side introduces {', '.join(extra)}", line, column)
        label = chr(ord("a") + index) if index < 26 else f"r{index + 1}"
        (weak if is_weak else strict).append(Rule(lhs, rhs, label))

    q = tuple(strict + weak) if options["STRATEGY"] else ()
    return Problem((), tuple(strict), (), tuple(weak), q, options["STARTTERM"])


def parse_file(path: str) -> Problem:
    with open(path, encoding="utf-8") as handle:
        return parse_problem(handle.read())


def print_problem(p: Problem) -> str:
    """Inverse of parse_problem for problems the format can express."""
    if p.dps:
        raise ValueError("dependency pairs cannot be written in this format")
    start = {kind: word for word, kind in _START.items()}.get(p.start_terms)
    if start is None:
        raise ValueError(f"start terms {p.start_terms} cannot be written")
    if p.q and set(p.q) != set(p.all_rules):
        raise ValueError("only empty or innermost Q can be written")

    names = sorted({v for r in p.all_rules for v in variables(r.lhs)})
    lines = []
    if names:
        lines.append(f"(VAR {' '.join(names)})")
    lines.append("(RULES")
    for r in p.strict:
        lines.append(f"  {render(r.lhs)} -> {render(r.rhs)}")
    for r in p.weak:
        lines.append(f"  {render(r.lhs)} ->= {render(r.rhs)}")
    lines.append(")")
    if p.q:
        lines.append("(STRATEGY INNERMOST)")
    lines.append(f"(STARTTERM {start})")
    return "\n".join(lines) + "\n"
