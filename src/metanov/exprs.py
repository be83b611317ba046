"""Expression grammar: parser and deterministic renderer.

    expr   := "0" | term (("+"|"-") term)*
    term   := [rat] factor ["*" factor]
    rat    := ["-"] int ["/" int]
    factor := atom | "(" expr ")"
            | "A(" expr "," expr "," expr ")"      associator
            | "C(" expr "," expr ")"               commutator
            | "O(" expr "," expr ")"               circle product
            | "T(" expr "," expr "," expr "," expr ")"   Teichmueller combination
    atom   := "x" int | "v" int

``*`` is the sole product operator and must be parenthesized; ``a*b*c``
is a syntax error by design.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .fields import QQ
from .lincomb import LinComb
from .magma import _SUGAR, MagmaPoly, expand_sugar, leaves, x as gen_poly, v as var_poly


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_SUGAR_RE = re.compile(r"\s*([" + "".join(_SUGAR) + r"])\(")


class _Parser:
    def __init__(self, text: str, field):
        self.text = text
        self.pos = 0
        self.field = field

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _match(self, pattern: re.Pattern):
        m = pattern.match(self.text, self.pos)
        if m:
            self.pos = m.end()
        return m

    def expect(self, ch: str):
        self._skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def _int(self) -> int:
        self._skip_ws()
        m = re.compile(r"\d+").match(self.text, self.pos)
        if not m:
            raise ParseError("expected an integer", self.pos)
        self.pos = m.end()
        return int(m.group())

    def parse_expr(self) -> MagmaPoly:
        out = self.parse_term()
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                out = out + self.parse_term()
            elif c == "-":
                self.pos += 1
                out = out - self.parse_term()
            else:
                return out

    def parse_term(self) -> MagmaPoly:
        coeff = self._maybe_rational()
        out = self.parse_factor()
        if self.peek() == "*":
            self.pos += 1
            out = out * self.parse_factor()
            if self.peek() == "*":
                raise ParseError(
                    "nonassociative product: 'a*b*c' needs explicit parentheses",
                    self.pos,
                )
        if coeff is None:
            return out
        return out.scaled(self.field.coerce(coeff))

    def _maybe_rational(self) -> Fraction | None:
        self._skip_ws()
        start = self.pos
        neg = False
        if self.peek() == "-":
            neg = True
            self.pos += 1
        self._skip_ws()
        m = re.compile(r"\d+").match(self.text, self.pos)
        if not m:
            if neg:
                return Fraction(-1)  # unary minus directly before a factor
            self.pos = start
            return None
        self.pos = m.end()
        num = int(m.group())
        den = 1
        if self.peek() == "/":
            self.pos += 1
            den = self._int()
        q = Fraction(num, den)
        return -q if neg else q

    def parse_factor(self) -> MagmaPoly:
        self._skip_ws()
        m = self._match(_SUGAR_RE)
        if m:
            name = m.group(1)
            args = [self.parse_expr()]
            for _ in range(_SUGAR[name][0] - 1):
                self.expect(",")
                args.append(self.parse_expr())
            self.expect(")")
            return expand_sugar(name, args)
        c = self.peek()
        if c == "(":
            self.pos += 1
            inner = self.parse_expr()
            self.expect(")")
            return inner
        m = self._match(re.compile(r"\s*([xv])(\d+)"))
        if m:
            kind, idx = m.group(1), int(m.group(2))
            if idx < 1:
                raise ParseError("atom indices start at 1", self.pos)
            return gen_poly(idx, self.field) if kind == "x" else var_poly(idx, self.field)
        raise ParseError("expected a factor", self.pos)


def parse_expr(text: str, field=QQ) -> MagmaPoly:
    """Parse an expression into an exact magma polynomial."""
    if text.strip() == "0":
        return MagmaPoly.zero(field)
    p = _Parser(text, field)
    out = p.parse_expr()
    p._skip_ws()
    if p.pos != len(text):
        raise ParseError("trailing input", p.pos)
    return out


def parse_identity(text: str, field=QQ) -> MagmaPoly:
    """Parse an identity ``<expr over v-vars> [= 0]``."""
    body = text
    if "=" in text:
        body, rhs = text.split("=", 1)
        if rhs.strip() != "0":
            raise ParseError("identities must have the form '<expr> = 0'",
                             text.index("=") + 1)
    f = parse_expr(body, field)
    has_gen = any(a.kind == "x" for w in f.terms for a in leaves(w))
    if has_gen:
        raise ParseError(
            "identities must be written over formal variables v1, v2, ...", 0
        )
    return f


# -- rendering ---------------------------------------------------------


def render(e: LinComb) -> str:
    """Deterministic text rendering of a polynomial or normal-form element."""
    if not isinstance(e, LinComb):
        raise TypeError(f"cannot render {type(e).__name__}")
    if not e.terms:
        return "0"
    chunks = []
    for i, (k, c) in enumerate(e.sorted_terms()):
        neg = e.field.char == 0 and c < 0
        mag = -c if neg else c
        coeff = "" if mag == 1 else f"{mag} "
        if i == 0:
            prefix = ("-1 " if mag == 1 else f"-{coeff}") if neg else coeff
        else:
            prefix = (" - " if neg else " + ") + coeff
        chunks.append(prefix + repr(k))
    return "".join(chunks)
