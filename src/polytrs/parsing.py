"""Reader and writer for the parenthesized rewrite-system format.

A file is a sequence of sections: (VAR x y), (RULES l -> r ... l ->= r ...),
(STRATEGY INNERMOST) and (STARTTERM CONSTRUCTOR-BASED | FULL).  `->=` marks a
weak rule.  INNERMOST sets Q to all rules, otherwise Q is empty.  Start terms
default to basic terms; FULL means all ground terms.  Defined symbols are the
root symbols of left-hand sides, everything else is a constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .framework import Problem, StartKind
from .rewriting import Rule
from .terms import App, Symbol, SymbolKind, Term, Var, render, variables


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class _Token:
    kind: str  # "(", ")", ",", "ARROW", "WEAK_ARROW", "IDENT"
    text: str
    line: int
    column: int


_PUNCT = {"(", ")", ","}


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _PUNCT:
            out.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        start = i
        start_col = col
        while i < len(text) and not text[i].isspace() and text[i] not in _PUNCT:
            i += 1
            col += 1
        word = text[start:i]
        if word == "->":
            out.append(_Token("ARROW", word, line, start_col))
        elif word == "->=":
            out.append(_Token("WEAK_ARROW", word, line, start_col))
        else:
            out.append(_Token("IDENT", word, line, start_col))
    return out


# raw terms: symbol kinds are only known once every rule has been read
_RawTerm = Union[tuple[str, str], tuple[str, str, list]]


class _Cursor:
    def __init__(self, tokens: Sequence[_Token], end_line: int) -> None:
        self.tokens = tokens
        self.pos = 0
        self.end_line = end_line

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expected: str) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected {expected}, found end of section", self.end_line, 1)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next(kind)
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind}, found {tok.text!r}", tok.line, tok.column
            )
        return tok


def _split_sections(tokens: list[_Token]) -> list[tuple[_Token, list[_Token]]]:
    sections: list[tuple[_Token, list[_Token]]] = []
    i = 0
    while i < len(tokens):
        if tokens[i].kind != "(":
            raise ParseError(
                f"expected section, found {tokens[i].text!r}",
                tokens[i].line,
                tokens[i].column,
            )
        if i + 1 >= len(tokens) or tokens[i + 1].kind != "IDENT":
            raise ParseError("expected section name", tokens[i].line, tokens[i].column)
        name = tokens[i + 1]
        depth = 1
        j = i + 2
        while j < len(tokens) and depth > 0:
            if tokens[j].kind == "(":
                depth += 1
            elif tokens[j].kind == ")":
                depth -= 1
            j += 1
        if depth != 0:
            raise ParseError("unbalanced parenthesis", name.line, name.column)
        sections.append((name, tokens[i + 2 : j - 1]))
        i = j
    return sections


class _ProblemBuilder:
    def __init__(self) -> None:
        self.variables: set[str] = set()
        self.arities: dict[str, int] = {}

    def parse_term(self, cur: _Cursor) -> _RawTerm:
        tok = cur.next("a term")
        if tok.kind != "IDENT":
            raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.column)
        args: list[_RawTerm] = []
        nxt = cur.peek()
        if nxt is not None and nxt.kind == "(":
            cur.expect("(")
            args.append(self.parse_term(cur))
            while cur.peek() is not None and cur.peek().kind == ",":
                cur.expect(",")
                args.append(self.parse_term(cur))
            cur.expect(")")
        if tok.text in self.variables:
            if args:
                raise ParseError(
                    f"variable {tok.text} used with arguments", tok.line, tok.column
                )
            return ("var", tok.text)
        seen = self.arities.get(tok.text)
        if seen is not None and seen != len(args):
            raise ParseError(
                f"symbol {tok.text} used with arity {len(args)} and {seen}",
                tok.line,
                tok.column,
            )
        self.arities[tok.text] = len(args)
        return ("app", tok.text, args)

    def build(self, raw: _RawTerm, symbols: dict[str, Symbol]) -> Term:
        if raw[0] == "var":
            return Var(raw[1])
        _, name, args = raw
        return App(symbols[name], tuple(self.build(a, symbols) for a in args))


def parse_problem(text: str) -> Problem:
    tokens = _tokenize(text)
    end_line = tokens[-1].line if tokens else 1
    builder = _ProblemBuilder()
    raw_rules: list[tuple[_RawTerm, _RawTerm, bool, _Token]] = []
    innermost = False
    start_kind = StartKind.BASIC
    seen_sections: set[str] = set()

    sections = _split_sections(tokens)
    for name_tok, body in sections:
        name = name_tok.text
        if name == "COMMENT":
            continue
        if name in seen_sections:
            raise ParseError(f"duplicate section {name}", name_tok.line, name_tok.column)
        seen_sections.add(name)
        if name == "VAR":
            cur = _Cursor(body, end_line)
            while cur.peek() is not None:
                builder.variables.add(cur.expect("IDENT").text)
        elif name not in ("RULES", "STRATEGY", "STARTTERM"):
            raise ParseError(f"unknown section {name}", name_tok.line, name_tok.column)

    for name_tok, body in sections:
        name = name_tok.text
        cur = _Cursor(body, end_line)
        if name == "RULES":
            while cur.peek() is not None:
                at = cur.peek()
                lhs = builder.parse_term(cur)
                arrow = cur.next("-> or ->=")
                if arrow.kind not in ("ARROW", "WEAK_ARROW"):
                    raise ParseError(
                        f"expected -> or ->=, found {arrow.text!r}",
                        arrow.line,
                        arrow.column,
                    )
                rhs = builder.parse_term(cur)
                raw_rules.append((lhs, rhs, arrow.kind == "WEAK_ARROW", at))
        elif name == "STRATEGY":
            tok = cur.expect("IDENT")
            if tok.text != "INNERMOST":
                raise ParseError(
                    f"unsupported strategy {tok.text}", tok.line, tok.column
                )
            innermost = True
        elif name == "STARTTERM":
            tok = cur.expect("IDENT")
            if tok.text == "CONSTRUCTOR-BASED":
                start_kind = StartKind.BASIC
            elif tok.text == "FULL":
                start_kind = StartKind.ALL
            else:
                raise ParseError(
                    f"unsupported start terms {tok.text}", tok.line, tok.column
                )

    defined = {raw[1] for raw, _, _, _ in raw_rules}
    symbols = {
        name: Symbol(
            name,
            arity,
            SymbolKind.DEFINED if name in defined else SymbolKind.CONSTRUCTOR,
        )
        for name, arity in builder.arities.items()
    }

    strict: list[Rule] = []
    weak: list[Rule] = []
    for index, (raw_lhs, raw_rhs, is_weak, at) in enumerate(raw_rules):
        if raw_lhs[0] == "var":
            raise ParseError("left-hand side is a variable", at.line, at.column)
        lhs = builder.build(raw_lhs, symbols)
        rhs = builder.build(raw_rhs, symbols)
        extra = sorted(set(variables(rhs)) - set(variables(lhs)))
        if extra:
            raise ParseError(
                f"right-hand side introduces {', '.join(extra)}", at.line, at.column
            )
        assert isinstance(lhs, App)
        rule = Rule(lhs, rhs, _rule_label(index))
        (weak if is_weak else strict).append(rule)

    all_rules = tuple(strict) + tuple(weak)
    return Problem(
        strict_dps=(),
        strict_trs=tuple(strict),
        weak_dps=(),
        weak_trs=tuple(weak),
        q=all_rules if innermost else (),
        start_terms=start_kind,
    )


def _rule_label(index: int) -> str:
    if index < 26:
        return chr(ord("a") + index)
    return f"r{index + 1}"


def parse_file(path: str) -> Problem:
    with open(path, encoding="utf-8") as handle:
        return parse_problem(handle.read())


def print_problem(p: Problem) -> str:
    """Inverse of parse_problem for problems the format can express."""
    if p.dps:
        raise ValueError("dependency pairs cannot be written in this format")
    if p.start_terms is StartKind.BASIC:
        start = "CONSTRUCTOR-BASED"
    elif p.start_terms is StartKind.ALL:
        start = "FULL"
    else:
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
