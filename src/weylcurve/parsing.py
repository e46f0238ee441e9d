"""A tiny expression grammar for scalars, x-polynomials, and operators.

Grammar (whitespace ignored):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' INT)*
    atom   := INT | NAME | '(' expr ')'

NAME resolves to the reserved symbols x (the position variable) and D (the
derivative), or to a declared ring parameter.  '^' binds tightest, is
right-associative and takes nonnegative integer exponents; every exponent,
and every partial value of an exponent tower, must be at most 10 000.  '/'
only divides by parameter-level values.
Everything is evaluated in the operator algebra and then narrowed, so one
grammar serves all three value kinds.
"""

from __future__ import annotations

import re

from .scalars import ParamRing, ParamScalar
from .weyl import DiffOp, XPoly


class ExprError(ValueError):
    """Syntax or type error in an input expression, with position info."""

    def __init__(self, message: str, text: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (at position {pos} in {text!r})")


_MAX_EXPONENT = 10_000

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(.))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            break
        if m.group(1) is not None:
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            ch = m.group(3)
            if not ch.isspace():
                if ch not in "+-*/^()":
                    raise ExprError(f"unexpected character {ch!r}", text, m.start(3))
                tokens.append(("op", ch, m.start(3)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, ring: ParamRing, text: str):
        self.ring = ring
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of expression", self.text, len(self.text))
        self.pos += 1
        return tok

    def fail(self, message: str) -> ExprError:
        tok = self.peek()
        at = tok[2] if tok else len(self.text)
        return ExprError(message, self.text, at)

    def parse(self) -> DiffOp:
        value = self.expr()
        if self.peek() is not None:
            raise self.fail(f"trailing input {self.peek()[1]!r}")
        return value

    def expr(self) -> DiffOp:
        value = self.term()
        while (tok := self.peek()) and tok[1] in "+-" and tok[0] == "op":
            self.take()
            rhs = self.term()
            value = value + rhs if tok[1] == "+" else value - rhs
        return value

    def term(self) -> DiffOp:
        value = self.unary()
        while (tok := self.peek()) and tok[1] in "*/" and tok[0] == "op":
            self.take()
            rhs = self.unary()
            if tok[1] == "*":
                value = value * rhs
            else:
                scalar = _narrow_scalar_or_none(rhs)
                if scalar is None:
                    raise self.fail("can only divide by a parameter-level value")
                if scalar.is_zero():
                    raise self.fail("division by zero")
                value = value.scale(1 / scalar)
        return value

    def unary(self) -> DiffOp:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self) -> DiffOp:
        value = self.atom()
        exponents = []
        while (tok := self.peek()) and tok[0] == "op" and tok[1] == "^":
            self.take()
            exp = self.take()
            if exp[0] != "int":
                raise ExprError("exponent must be a nonnegative integer", self.text, exp[2])
            exponents.append((int(exp[1]), exp[2]))
        if not exponents:
            return value
        # a^b^c = a^(b^c); the cap is checked at every fold, so a tall tower
        # fails before any huge power is computed.
        total = 1
        for e, _ in reversed(exponents):
            if e > _MAX_EXPONENT or (total := e**total) > _MAX_EXPONENT:
                raise ExprError("exponent too large", self.text, exponents[0][1])
        p = _narrow_xpoly_or_none(value)
        if p is not None:
            return DiffOp.from_xpoly(p**total)  # square-and-multiply in x
        return value**total

    def atom(self) -> DiffOp:
        tok = self.take()
        kind, text, pos = tok
        if kind == "int":
            return DiffOp(self.ring, [XPoly.const(self.ring, int(text))])
        if kind == "name":
            if text == "x":
                return DiffOp.from_xpoly(XPoly.x(self.ring))
            if text == "D":
                return DiffOp.d(self.ring)
            if text == "z":
                raise ExprError("z is reserved for the spectral variable", self.text, pos)
            if text in self.ring:
                return DiffOp(self.ring, [XPoly.const(self.ring, self.ring.param(text))])
            declared = ", ".join(self.ring.names) or "(none)"
            raise ExprError(
                f"unknown name {text!r}; declared parameters: {declared}", self.text, pos
            )
        if kind == "op" and text == "(":
            value = self.expr()
            closing = self.take()
            if closing[0] != "op" or closing[1] != ")":
                raise ExprError("expected ')'", self.text, closing[2])
            return value
        raise ExprError(f"unexpected token {text!r}", self.text, pos)


def _narrow_xpoly_or_none(op: DiffOp) -> XPoly | None:
    if op.is_zero():
        return XPoly.zero(op.ring)
    if op.order == 0:
        return op.coefficient(0)
    return None


def _narrow_scalar_or_none(op: DiffOp) -> ParamScalar | None:
    p = _narrow_xpoly_or_none(op)
    if p is None or not p.is_constant():
        return None
    return p.constant_value()


def parse_diffop(ring: ParamRing, text: str) -> DiffOp:
    """Evaluate an expression as a differential operator."""
    return _Parser(ring, text).parse()


def parse_xpoly(ring: ParamRing, text: str) -> XPoly:
    """Evaluate an expression as a polynomial in x (no D allowed)."""
    op = parse_diffop(ring, text)
    p = _narrow_xpoly_or_none(op)
    if p is None:
        raise ExprError("expression involves D but a polynomial in x was expected", text, 0)
    return p


def parse_scalar(ring: ParamRing, text: str) -> ParamScalar:
    """Evaluate an expression as a parameter-level scalar (no x, no D)."""
    op = parse_diffop(ring, text)
    s = _narrow_scalar_or_none(op)
    if s is None:
        raise ExprError("expression involves x or D but a scalar was expected", text, 0)
    return s
