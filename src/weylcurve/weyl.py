"""Polynomials in x and differential operators with polynomial coefficients.

``XPoly`` is a dense polynomial in the variable x whose coefficients are
exact parameter scalars.  ``DiffOp`` is a differential operator written in
normal form sum_i c_i(x) D^i with D = d/dx; composition uses the Leibniz
expansion (a D^i)(b D^j) = sum_k C(i,k) a b^(k) D^(i+j-k), which keeps every
operator in normal form.  Degrees and orders use None for the zero element.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, perm
from typing import Iterable, Mapping

from .scalars import ParamRing, ParamScalar, RatLike, _coerce_scalar, _same_rings


def dense_add(a, b) -> list:
    """Sum of two coefficient sequences, ascending in the variable; untrimmed."""
    n = min(len(a), len(b))
    return [x + y for x, y in zip(a, b)] + list(a[n:]) + list(b[n:])


def dense_mul(a, b, zero) -> list:
    """Product of two coefficient sequences, ascending in the variable; untrimmed.

    Zero coefficients on either side are skipped, since the family potentials
    are sparse; `zero` fills the slots no product reaches.
    """
    if not a or not b:
        return []
    right = [(j, y) for j, y in enumerate(b) if y]
    out = [None] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in right:
            term = x * y
            acc = out[i + j]
            out[i + j] = term if acc is None else acc + term
    return [zero if c is None else c for c in out]


class XPoly:
    """Dense polynomial in x over the parameter scalars; index = power of x."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: ParamRing, coeffs: Iterable = ()):
        cs = [_coerce_scalar(ring, c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.ring = ring
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, ring: ParamRing) -> "XPoly":
        return cls(ring)

    @classmethod
    def const(cls, ring: ParamRing, value) -> "XPoly":
        return cls(ring, [value])

    @classmethod
    def x(cls, ring: ParamRing) -> "XPoly":
        return cls(ring, [0, 1])

    @classmethod
    def monomial(cls, ring: ParamRing, power: int, coeff=1) -> "XPoly":
        if power < 0:
            raise ValueError(f"negative power {power}")
        return cls(ring, [0] * power + [coeff])

    # -- views ---------------------------------------------------------------

    @property
    def degree(self) -> int | None:
        """Degree in x; None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def coefficient(self, power: int) -> ParamScalar:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return self.ring.zero()

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> ParamScalar:
        if not self.is_constant():
            raise ValueError(f"not constant in x: {self}")
        return self.coeffs[0] if self.coeffs else self.ring.zero()

    def free_params(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for c in self.coeffs:
            out |= c.free_params()
        return out

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other) -> "XPoly | None":
        if isinstance(other, XPoly):
            _same_rings(self.ring, other.ring)
            return other
        if isinstance(other, (int, Fraction, ParamScalar)):
            return XPoly(self.ring, [other])
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return XPoly(self.ring, dense_add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return XPoly(self.ring, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ParamScalar)):
            return self.scale(other)
        if not isinstance(other, XPoly):
            return NotImplemented
        _same_rings(self.ring, other.ring)
        return XPoly(self.ring, dense_mul(self.coeffs, other.coeffs, self.ring.zero()))

    __rmul__ = __mul__

    def scale(self, value) -> "XPoly":
        if isinstance(value, (int, Fraction)):
            return XPoly(self.ring, [c._scale(value) for c in self.coeffs] if value else ())
        value = _coerce_scalar(self.ring, value)
        return XPoly(self.ring, [c * value for c in self.coeffs])

    def __pow__(self, power: int):
        if not isinstance(power, int) or power < 0:
            raise ValueError(f"power must be a nonnegative integer, got {power!r}")
        out = XPoly.const(self.ring, 1)
        base = self
        while power:
            if power & 1:
                out = out * base
            base = base * base
            power >>= 1
        return out

    # -- calculus ------------------------------------------------------------------

    def derivative(self, order: int = 1) -> "XPoly":
        if order < 0:
            raise ValueError(f"negative derivative order {order}")
        return XPoly(
            self.ring, [c._scale(perm(i, order)) for i, c in enumerate(self.coeffs) if i >= order]
        )

    def antiderivative(self) -> "XPoly":
        """The antiderivative whose constant term is zero."""
        return XPoly(
            self.ring,
            [self.ring.zero()] + [c._scale(Fraction(1, i + 1)) for i, c in enumerate(self.coeffs)],
        )

    # -- substitution and lifting ----------------------------------------------------

    def substitute_params(self, bindings: Mapping[str, "RatLike | ParamScalar"]) -> "XPoly":
        return XPoly(self.ring, [c.substitute(bindings) for c in self.coeffs])

    def lift(self, ring: ParamRing) -> "XPoly":
        if ring == self.ring:
            return self
        return XPoly(ring, [c.lift(ring) for c in self.coeffs])

    # -- equality and display ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, ParamScalar)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, XPoly):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.ring.names, self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[power]
            if c.is_zero():
                continue
            parts.append(_join_term(parts, _render_coeff_power(c, "x", power)))
        return "".join(parts)

    def __repr__(self) -> str:
        return f"XPoly({self})"


def _scalar_sign_body(c: ParamScalar) -> tuple[bool, str]:
    """(is_negative, magnitude_text) when c renders as a single signed product."""
    if c.den.is_one() and len(c.num.terms) == 1:
        text = str(c.num)
        if text.startswith("-"):
            return True, text[1:]
        return False, text
    return False, f"({c})"


def _render_coeff_power(c: ParamScalar, var: str, power: int) -> tuple[bool, str]:
    neg, body = _scalar_sign_body(c)
    if power == 0:
        return neg, body
    var_part = var if power == 1 else f"{var}^{power}"
    if body == "1":
        return neg, var_part
    return neg, f"{body}*{var_part}"


def _join_term(parts: list[str], term: tuple[bool, str]) -> str:
    neg, body = term
    if not parts:
        return f"-{body}" if neg else body
    return f" - {body}" if neg else f" + {body}"


def xpoly_integrate(p: XPoly, constant: "RatLike | ParamScalar | str" = 0) -> XPoly:
    """Antiderivative of p with the given constant term.

    A string names a ring parameter to use as a symbolic constant.
    """
    if isinstance(constant, str):
        constant = p.ring.param(constant)
    return p.antiderivative() + XPoly.const(p.ring, constant)


class DiffOp:
    """Differential operator sum_i c_i(x) D^i in normal form; index = D-order."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: ParamRing, coeffs: Iterable = ()):
        cs = []
        for c in coeffs:
            if isinstance(c, XPoly):
                _same_rings(ring, c.ring)
                cs.append(c)
            else:
                cs.append(XPoly.const(ring, c))
        while cs and cs[-1].is_zero():
            cs.pop()
        self.ring = ring
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, ring: ParamRing) -> "DiffOp":
        return cls(ring)

    @classmethod
    def identity(cls, ring: ParamRing) -> "DiffOp":
        return cls(ring, [XPoly.const(ring, 1)])

    @classmethod
    def d(cls, ring: ParamRing, order: int = 1) -> "DiffOp":
        if order < 0:
            raise ValueError(f"negative operator order {order}")
        return cls(ring, [XPoly.zero(ring)] * order + [XPoly.const(ring, 1)])

    @classmethod
    def from_xpoly(cls, p: XPoly) -> "DiffOp":
        return cls(p.ring, [p])

    # -- views -------------------------------------------------------------------

    @property
    def order(self) -> int | None:
        """Order as a differential operator; None for the zero operator."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def coefficient(self, order: int) -> XPoly:
        if 0 <= order < len(self.coeffs):
            return self.coeffs[order]
        return XPoly.zero(self.ring)

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- arithmetic -----------------------------------------------------------------

    def _coerce(self, other) -> "DiffOp | None":
        if isinstance(other, (DiffOp, XPoly)):
            _same_rings(self.ring, other.ring)
            return other if isinstance(other, DiffOp) else DiffOp.from_xpoly(other)
        if isinstance(other, (int, Fraction, ParamScalar)):
            return DiffOp(self.ring, [XPoly.const(self.ring, other)])
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return DiffOp(self.ring, dense_add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return DiffOp(self.ring, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        """Operator composition (not commutative)."""
        if isinstance(other, (int, Fraction, ParamScalar)):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return DiffOp.zero(self.ring)
        zero = XPoly.zero(self.ring)
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for j, b in enumerate(other.coeffs):
            if b.is_zero():
                continue
            # b, b', b'', ... reused across all left factors
            derivs = [b]
            for i, a in enumerate(self.coeffs):
                if a.is_zero():
                    continue
                while len(derivs) <= i:
                    derivs.append(derivs[-1].derivative())
                for k in range(i + 1):
                    if derivs[k].is_zero():
                        break
                    out[i + j - k] = out[i + j - k] + comb(i, k) * a * derivs[k]
        return DiffOp(self.ring, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, ParamScalar)):
            return self.scale(other)
        if isinstance(other, XPoly):
            return DiffOp.from_xpoly(other) * self
        return NotImplemented

    def scale(self, value) -> "DiffOp":
        value = _coerce_scalar(self.ring, value)
        return DiffOp(self.ring, [c.scale(value) for c in self.coeffs])

    def __pow__(self, power: int):
        if not isinstance(power, int) or power < 0:
            raise ValueError(f"power must be a nonnegative integer, got {power!r}")
        out = DiffOp.identity(self.ring)
        for _ in range(power):
            out = out * self
        return out

    def commutator(self, other: "DiffOp") -> "DiffOp":
        return self * other - other * self

    def apply(self, p: XPoly) -> XPoly:
        """Apply the operator to a polynomial in x."""
        out = XPoly.zero(self.ring)
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                out = out + c * p.derivative(i)
        return out

    # -- substitution and lifting -------------------------------------------------------

    def substitute_params(self, bindings: Mapping[str, "RatLike | ParamScalar"]) -> "DiffOp":
        return DiffOp(self.ring, [c.substitute_params(bindings) for c in self.coeffs])

    def lift(self, ring: ParamRing) -> "DiffOp":
        if ring == self.ring:
            return self
        return DiffOp(ring, [c.lift(ring) for c in self.coeffs])

    # -- equality and display ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, ParamScalar, XPoly)):
            coerced = self._coerce(other)
            return coerced is not None and self == coerced
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.ring.names, self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for order in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[order]
            if c.is_zero():
                continue
            parts.append(_join_term(parts, _render_op_term(c, order)))
        return "".join(parts)

    def __repr__(self) -> str:
        return f"DiffOp({self})"


def _render_op_term(c: XPoly, order: int) -> tuple[bool, str]:
    if len(c.coeffs) == sum(1 for s in c.coeffs if s.is_zero()) + 1:
        # single x-power: inline it
        power = max(i for i, s in enumerate(c.coeffs) if not s.is_zero())
        neg, body = _render_coeff_power(c.coeffs[power], "x", power)
    else:
        neg, body = False, f"({c})"
    if order == 0:
        return neg, body
    d_part = "D" if order == 1 else f"D^{order}"
    if body == "1":
        return neg, d_part
    return neg, f"{body}*{d_part}"


def build_square_form(V: XPoly, W: XPoly) -> DiffOp:
    """The operator (D^2 + V)^2 + W = D^4 + 2V D^2 + 2V' D + (V'' + V^2 + W)."""
    _same_rings(V.ring, W.ring)
    ring = V.ring
    return DiffOp(
        ring,
        [
            V.derivative(2) + V * V + W,
            V.derivative() * 2,
            V * 2,
            XPoly.zero(ring),
            XPoly.const(ring, 1),
        ],
    )
