"""Polynomials in x and differential operators with polynomial coefficients.

Every coefficient sequence of the engine is a ``_Dense``: a parameter ring
plus an ascending tuple of entries with no trailing zeros.  ``_Dense`` owns
construction and trimming, the zero value, coefficient access, addition and
negation (subtraction comes from ``scalars._Subtraction``), lifting to a
larger ring, equality, hashing and the descending-power display loop.  A
subclass says how a constructor argument becomes an entry (``_entry``), which
other operands arithmetic and equality promote to a one-entry value
(``_OPERANDS``) and how one nonzero term is displayed (``_term``), and adds
its own products and calculus:

- ``XPoly`` is a dense polynomial in the variable x whose entries are exact
  parameter scalars; it adds powers, derivatives and integrals.  It has no
  product of its own: an XPoly is an operator of order 0, and its products
  are compositions of such operators.
- ``DiffOp`` is a differential operator written in normal form
  sum_i c_i(x) D^i with D = d/dx and XPoly entries; it adds composition,
  commutators and application to an XPoly.
- ``chain.QPoly`` is the certificate Q(x, z), a polynomial in the spectral
  variable z with XPoly entries; it adds z-products.
- ``curve.SpectralCurve`` is the monic F(z) of a spectral curve w^2 = F(z),
  an XPoly whose variable is z; it adds the monic check and the genus bound.

Composition works on symbols.  The symbol of sum_i c_i(x) D^i is the
commutative polynomial sum_i c_i(x) xi^i, and with a, b the symbols of A, B

    A B = sum_{k>=0} (d_xi^k a / k!) (d_x^k b),

a sum of commutative products; for two operators of order 0 it is the
k = 0 product alone.  For one pair of terms x^p xi^i and x^q xi^j
the k-th summand is C(i,k) q!/(q-k)! x^(p+q-k) xi^(i+j-k), so each pair costs
one product of parameter polynomials, shared by all its k.  The commutator
[A, B] runs the sum from k = 1 for (a, b) and, negated, for (b, a): the k = 0
summands a b and b a are equal, so neither is built.  The k = i summand of a
pair with j = 0 is x^p D^i applied to x^q, which ``DiffOp.apply`` sums.

The products and ``apply`` run on the terms dicts of the coefficient numerators
and build scalar objects once, at the end, through the kernels of
``scalars.py`` (``_mul_into``, ``_times``, ``_poly``); this module keeps
only the bookkeeping of x-powers and D-orders.  A denominator other than 1 is
handled by clearing denominators, and ``_symbol`` is the one cleared form of
an operand: the parameters are constants for D, so with
N/d the coefficients of an operand over their lcm d, (N_L/d_L)(N_R/d_R) =
(N_L N_R)/(d_L d_R), and each result coefficient is then reduced by
``ParamScalar``.  Degrees and orders use None for the zero element.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, perm
from typing import Iterable, Mapping

from .scalars import (
    ParamPoly,
    ParamRing,
    ParamScalar,
    RatLike,
    _Powers,
    _Subtraction,
    _clear_denominators,
    _coerce_scalar,
    _join_term,
    _mul_into,
    _poly,
    _same_rings,
    _times,
)


def dense_add(a, b) -> list:
    """Sum of two coefficient sequences, ascending; untrimmed; a zero side keeps the other."""
    n = min(len(a), len(b))
    return [x + y if x and y else x or y for x, y in zip(a, b)] + list(a[n:]) + list(b[n:])


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


def _product_den(dl: ParamPoly, dr: ParamPoly) -> ParamPoly:
    return dr if dl.is_one() else dl if dr.is_one() else dl * dr


def _scalar(ring: ParamRing, acc: dict, den: ParamPoly) -> ParamScalar:
    """The scalar acc / den from accumulated terms that may hold zeros."""
    num = _poly(ring, acc)
    if den.is_one():
        return ParamScalar._raw(num, ring.poly_one())
    return ParamScalar(num, den)


def _trim(coeffs: list) -> tuple:
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return tuple(coeffs)


class _Dense(_Subtraction):
    """A parameter ring and an ascending tuple of entries without trailing zeros.

    Subclasses set ``_entry(ring, value)``, which turns one constructor
    argument into an entry over ``ring``; ``_OPERANDS``, the types that
    arithmetic and equality promote to a one-entry value; and
    ``_term(entry, index)``, the (is_negative, text) of one nonzero term.
    """

    __slots__ = ("ring", "coeffs")
    _OPERANDS: tuple = ()

    def __init__(self, ring: ParamRing, coeffs: Iterable = ()):
        self.ring = ring
        self.coeffs = _trim([self._entry(ring, c) for c in coeffs])

    @classmethod
    def _raw(cls, ring: ParamRing, coeffs: list):
        # Trusted constructor: `coeffs` are entries over `ring`; only
        # trailing zeros are trimmed.
        self = object.__new__(cls)
        self.ring = ring
        self.coeffs = _trim(coeffs)
        return self

    @classmethod
    def zero(cls, ring: ParamRing):
        return cls._raw(ring, [])

    # -- views -----------------------------------------------------------------

    def coefficient(self, power: int):
        """The entry at `power`; the zero entry outside the stored range."""
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return self._entry(self.ring, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other):
        """`other` as a value of this class over this ring; None for no operand."""
        if isinstance(other, type(self)):
            _same_rings(self.ring, other.ring)
            return other
        if isinstance(other, self._OPERANDS):
            return self._raw(self.ring, [self._entry(self.ring, other)])
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._raw(self.ring, dense_add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return self._raw(self.ring, [-c if c else c for c in self.coeffs])

    def lift(self, ring: ParamRing):
        if ring == self.ring:
            return self
        return self._raw(ring, [c.lift(ring) for c in self.coeffs])

    # -- equality and display --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            # an operand over another ring is unequal, not an error
            if getattr(other, "ring", self.ring) != self.ring:
                return False
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.ring.names, self.coeffs))

    def __str__(self) -> str:
        parts: list[str] = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c.is_zero():
                parts.append(_join_term(parts, self._term(c, i)))
        return "".join(parts) or "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class XPoly(_Dense, _Powers):
    """Dense polynomial in x over the parameter scalars; index = power of x."""

    __slots__ = ()
    _entry = staticmethod(_coerce_scalar)
    _OPERANDS = (int, Fraction, ParamScalar)

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

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> ParamScalar:
        if not self.is_constant():
            raise ValueError(f"not constant in x: {self}")
        return self.coefficient(0)

    def free_params(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for c in self.coeffs:
            out |= c.free_params()
        return out

    # -- arithmetic ------------------------------------------------------------

    def __mul__(self, other):
        """The product as a composition of order-0 operators."""
        if isinstance(other, (int, Fraction, ParamScalar)):
            return self.scale(other)
        if not isinstance(other, XPoly):
            return NotImplemented
        ring = self.ring
        _same_rings(ring, other.ring)
        return _compose(DiffOp._raw(ring, [self]), DiffOp._raw(ring, [other]), False).coefficient(0)

    __rmul__ = __mul__

    def scale(self, value) -> "XPoly":
        if isinstance(value, (int, Fraction)):
            return XPoly._raw(self.ring, [c._scale(value) for c in self.coeffs] if value else [])
        # coerced once, not per coefficient: a per-coefficient coercion slowed decide by 4%
        value = _coerce_scalar(self.ring, value)
        return XPoly._raw(self.ring, [c * value for c in self.coeffs])

    # -- calculus ------------------------------------------------------------------

    def derivative(self, order: int = 1) -> "XPoly":
        if order < 0:
            raise ValueError(f"negative derivative order {order}")
        return XPoly._raw(
            self.ring, [c._scale(perm(i, order)) for i, c in enumerate(self.coeffs) if i >= order]
        )

    def antiderivative(self) -> "XPoly":
        """The antiderivative whose constant term is zero."""
        return XPoly._raw(
            self.ring,
            [self.ring.zero()] + [c._scale(Fraction(1, i + 1)) for i, c in enumerate(self.coeffs)],
        )

    def substitute_params(self, bindings: Mapping[str, "RatLike | ParamScalar"]) -> "XPoly":
        return type(self)(self.ring, [c.substitute(bindings) for c in self.coeffs])

    @staticmethod
    def _term(c: ParamScalar, power: int) -> tuple[bool, str]:
        return _render_coeff_power(c, "x", power)


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


def xpoly_integrate(p: XPoly, constant: "RatLike | ParamScalar | str" = 0) -> XPoly:
    """Antiderivative of p with the given constant term.

    A string names a ring parameter to use as a symbolic constant.
    """
    if isinstance(constant, str):
        constant = p.ring.param(constant)
    return p.antiderivative() + XPoly.const(p.ring, constant)


def _xpoly_entry(ring: ParamRing, value) -> XPoly:
    """An XPoly over `ring`, or a scalar-like value as a constant XPoly."""
    if isinstance(value, XPoly):
        _same_rings(ring, value.ring)
        return value
    return XPoly.const(ring, value)


class DiffOp(_Dense):
    """Differential operator sum_i c_i(x) D^i in normal form; index = D-order."""

    __slots__ = ()
    _entry = staticmethod(_xpoly_entry)
    _OPERANDS = (int, Fraction, ParamScalar, XPoly)

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

    @property
    def order(self) -> int | None:
        """Order as a differential operator; None for the zero operator."""
        return len(self.coeffs) - 1 if self.coeffs else None

    # -- arithmetic -----------------------------------------------------------------

    def __mul__(self, other):
        """Operator composition (not commutative)."""
        if isinstance(other, (int, Fraction, ParamScalar)):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _compose(self, other, bracket=False)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, ParamScalar)):
            return self.scale(other)
        if isinstance(other, XPoly):
            return DiffOp.from_xpoly(other) * self
        return NotImplemented

    def scale(self, value) -> "DiffOp":
        # a rational goes to XPoly.scale as it is; anything else is coerced once, even for zero
        if not isinstance(value, (int, Fraction)):
            value = _coerce_scalar(self.ring, value)
        return DiffOp._raw(self.ring, [c.scale(value) for c in self.coeffs])

    def __pow__(self, power: int):
        if not isinstance(power, int) or power < 0:
            raise ValueError(f"power must be a nonnegative integer, got {power!r}")
        if power == 0:
            return DiffOp.identity(self.ring)
        # one factor at a time from self, not _Powers: squaring made (D + 2x)^80 5-7 times
        # slower, and a start from the identity costs one more composition
        out = self
        for _ in range(power - 1):
            out = out * self
        return out

    def commutator(self, other) -> "DiffOp":
        """[self, other] = self*other - other*self; other may be any operand of a product."""
        coerced = self._coerce(other)
        if coerced is None:
            raise TypeError(f"no commutator of DiffOp and {type(other).__name__}")
        return _compose(self, coerced, bracket=True)

    def apply(self, p: XPoly) -> XPoly:
        """The operator applied to p: (c x^s D^i) x^q = c q!/(q-i)! x^(s+q-i), summed per power."""
        ring = self.ring
        _same_rings(ring, p.ring)
        (left, dl), (right, dr) = _symbol(self), _symbol(DiffOp._raw(ring, [p]))
        derivs: dict[int, list] = {}  # D-order i -> [(q - i, terms of q!/(q-i)! [x^q] p)]
        accs = [{} for _ in range(len(p.coeffs) + max((s for (_, s), _ in left), default=0))]
        # high D-orders, whose scaled terms are mostly ints, first: Fraction sums start late
        for (i, s), ta in reversed(left):
            if i not in derivs:
                derivs[i] = [(q - i, _times(dict(tb), perm(q, i)).items() if i else tb)
                             for (_, q), tb in right if q >= i]
            for r, tb in derivs[i]:
                _mul_into(accs[s + r], ta, tb)
        den, zero = _product_den(dl, dr), ring.zero()
        return XPoly._raw(ring, [_scalar(ring, acc, den) if acc else zero for acc in accs])

    def substitute_params(self, bindings: Mapping[str, "RatLike | ParamScalar"]) -> "DiffOp":
        return DiffOp._raw(self.ring, [c.substitute_params(bindings) for c in self.coeffs])

    @staticmethod
    def _term(c: XPoly, order: int) -> tuple[bool, str]:
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


def _symbol(op: DiffOp) -> tuple[list, ParamPoly]:
    """([((D-order, x-power), numerator terms)], d) over the nonzero coefficients of op."""
    keys, scalars = [], []
    for i, a in enumerate(op.coeffs):
        for p, c in enumerate(a.coeffs):
            if c:
                keys.append((i, p))
                scalars.append(c)
    nums, d = _clear_denominators(op.ring, scalars)
    return [(key, list(n.terms.items())) for key, n in zip(keys, nums)], d


def _compose_into(out: dict, a: list, b: list, start: int, sign: int = 1) -> None:
    """Add sign * sum_{k >= start} (d_xi^k a / k!)(d_x^k b) into out, one term pair at a time.

    The pair (x^p xi^i, x^q xi^j) adds C(i,k) q!/(q-k)! x^(p+q-k) xi^(i+j-k)
    times the product of its parameter terms, computed once for all its k;
    out maps (D-order, x-power) to accumulated terms.
    """
    b = [(j, q, tb) for (j, q), tb in b if q >= start]
    for (i, p), ta in a:
        if i < start:
            continue
        for j, q, tb in b:
            top = i if i < q else q
            if not top:  # only k = 0, whose factor is 1
                _mul_into(out.setdefault((i + j, p + q), {}), ta, tb)
                continue
            prod: dict = {}
            _mul_into(prod, ta, tb)
            terms = prod.items()
            for k in range(start, top + 1):
                f = sign * comb(i, k) * perm(q, k)
                acc = out.setdefault((i + j - k, p + q - k), {})
                for e, c in terms:
                    acc[e] = acc.get(e, 0) + f * c


def _compose(a: DiffOp, b: DiffOp, bracket: bool) -> DiffOp:
    """a*b; with `bracket`, [a, b]: the sum from k = 1 for (a, b) and, negated, for (b, a)."""
    ring = a.ring
    if a.is_zero() or b.is_zero():
        return DiffOp.zero(ring)
    (left, dl), (right, dr) = _symbol(a), _symbol(b)
    out: dict[tuple[int, int], dict] = {}
    _compose_into(out, left, right, 1 if bracket else 0)
    if bracket:
        _compose_into(out, right, left, 1, -1)
    den, zero = _product_den(dl, dr), ring.zero()
    rows: list[list] = [[] for _ in range(len(a.coeffs) + len(b.coeffs) - 1)]
    for (order, power), acc in out.items():
        row = rows[order]
        if len(row) <= power:
            row.extend([zero] * (power + 1 - len(row)))
        row[power] = _scalar(ring, acc, den)
    return DiffOp._raw(ring, [XPoly._raw(ring, row) for row in rows])


def build_square_form(V: XPoly, W: XPoly) -> DiffOp:
    """The operator (D^2 + V)^2 + W = D^4 + 2V D^2 + 2V' D + (V'' + V^2 + W)."""
    _same_rings(V.ring, W.ring)
    ring = V.ring
    return DiffOp._raw(
        ring,
        [
            V.derivative(2) + V * V + W,
            V.derivative() * 2,
            V * 2,
            XPoly.zero(ring),
            XPoly.const(ring, 1),
        ],
    )
