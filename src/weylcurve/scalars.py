"""Exact scalar arithmetic over a fixed universe of named parameters.

Coefficients live in the field Q(p1, ..., pk): arbitrary-precision rationals,
multivariate polynomials in the declared parameters (``ParamPoly``), and
quotients of those (``ParamScalar``).  A rational coefficient is a Python
``int`` when it is integral and a ``fractions.Fraction`` otherwise, so the
integer arithmetic that dominates the engine never goes through ``Fraction``;
a ``Fraction`` is brought back to an ``int`` where it is made (a quotient, a
scale by a rational, a sum or product of non-integral terms).  Everything is
immutable and kept canonical: polynomials never store zero coefficients,
quotients are reduced by the multivariate gcd, and denominators are primitive
with a positive leading coefficient, so structural equality is mathematical
equality and values are safe to hash.

The parameter universe is fixed when a ``ParamRing`` is created.  Widening it
(for example to add integration constants) goes through ``ParamRing.extend``
plus the ``lift`` methods, never by mutation.

Subtraction is written once, in ``_Subtraction``: a value class with
``_coerce``, ``__add__`` and ``__neg__`` inherits a - b and b - a from it.
Both scalar classes here do, and so does ``weyl._Dense``.  Powers are written
once, in ``_Powers``, from ``_coerce`` and ``__mul__``: ``ParamPoly`` and ``weyl.XPoly``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, isqrt
from operator import add, sub
from typing import Iterable, Mapping, Union

Rat = Fraction

RatLike = Union[int, Fraction]

# Names with a fixed meaning in the expression grammar; they can never be
# declared as parameters.
RESERVED_NAMES = frozenset({"x", "z", "D"})


class PoleError(ZeroDivisionError):
    """A substitution made a denominator vanish."""


def _is_name(text: str) -> bool:
    return text.isidentifier()


def _canon(q: Fraction) -> int | Fraction:
    """A Fraction as a canonical coefficient: its numerator when it is integral."""
    return q.numerator if q.denominator == 1 else q


def _coefficient(value) -> int | Fraction:
    """An int or Fraction as a canonical coefficient; anything else is a TypeError."""
    if type(value) is int:
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return _canon(value)
    raise TypeError(f"cannot interpret {value!r} as a scalar")


def _div(a: int | Fraction, b: int | Fraction) -> int | Fraction:
    """The exact quotient a / b as a canonical coefficient; never a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _canon(a / b)


def _canonical(terms: dict) -> dict:
    """terms with each integral Fraction replaced by its numerator, in place."""
    for exp, c in terms.items():
        if type(c) is not int:
            terms[exp] = _canon(c)
    return terms


# -- term kernels ---------------------------------------------------------------
#
# Every product, sum and scale of polynomials in the parameters runs on terms:
# (exponent tuple, coefficient) pairs, gathered in an exponent -> coefficient
# dict.  _mul_into leaves zeros and integral Fractions in its accumulator for
# _poly to clear at the end; every sum _add_into makes and every product
# _times makes is canonical.  _mul_into skips the exponent sum in a ring
# without names, whose only exponent is the empty tuple.


def _mul_into(acc: dict, ta: Iterable, tb: Iterable) -> None:
    """Add the product of two term lists into the exponent -> coefficient dict acc."""
    for ea, ca in ta:
        for eb, cb in tb:
            exp = tuple(map(add, ea, eb)) if ea else ea
            v = acc.get(exp)
            acc[exp] = ca * cb if v is None else v + ca * cb


def _add_into(acc: dict, terms: Iterable, factor: int | Fraction = 1) -> dict:
    """Add factor * terms into the dict acc; a sum that cancels is dropped."""
    scaled = factor != 1
    for exp, c in terms:
        if scaled:
            c = c * factor
        v = acc.get(exp)
        total = c if v is None else v + c
        if total:
            acc[exp] = total if type(total) is int else _canon(total)
        elif v is not None:
            del acc[exp]
    return acc


def _times(terms: dict, factor: int | Fraction) -> dict:
    """terms times a nonzero rational; int coefficients stay in int arithmetic."""
    if type(factor) is int:
        return {e: c * factor if type(c) is int else _canon(c * factor) for e, c in terms.items()}
    num, den = factor.numerator, factor.denominator
    return {e: _div(c * num, den) for e, c in terms.items()}


def _poly(ring: "ParamRing", acc: dict) -> "ParamPoly":
    """The polynomial of an accumulator that may hold zeros and integral Fractions."""
    return ParamPoly._raw(ring, _canonical({exp: c for exp, c in acc.items() if c}))


def _join_term(parts: list[str], term: tuple[bool, str]) -> str:
    """One (is_negative, magnitude_text) term, signed as it follows `parts`."""
    neg, body = term
    if not parts:
        return f"-{body}" if neg else body
    return f" - {body}" if neg else f" + {body}"


class _Subtraction:
    """a - b and b - a from the class's _coerce, __add__ and __neg__."""

    __slots__ = ()

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


class _Powers:
    """self ** n for an integer n >= 0 from the class's __mul__; n = 0 gives _coerce(1)."""

    __slots__ = ()

    def __pow__(self, power: int):
        if not isinstance(power, int) or power < 0:
            raise ValueError(f"power must be a nonnegative integer, got {power!r}")
        if power == 0:
            return self._coerce(1)
        # left to right: square the result, then multiply by the (short) base
        out = self
        for bit in bin(power)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out


class ParamRing:
    """Ordered universe of named parameters shared by a family of values.

    Two rings compare equal iff they declare the same names in the same
    order; values constructed over different rings never mix silently.
    """

    __slots__ = ("names", "_index", "_zero_exp", "_one")

    def __init__(self, names: Iterable[str] = ()):
        names = tuple(names)
        for name in names:
            if not _is_name(name):
                raise ValueError(f"invalid parameter name {name!r}")
            if name in RESERVED_NAMES:
                raise ValueError(f"parameter name {name!r} is reserved")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names in {names!r}")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}
        self._zero_exp = (0,) * len(names)
        # one shared unit: a denominator that is this object is 1 at a glance
        self._one = ParamPoly._raw(self, {self._zero_exp: 1})

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, ParamRing) and self.names == other.names)

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"ParamRing({list(self.names)!r})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(
                f"unknown parameter {name!r}; declared: {', '.join(self.names) or '(none)'}"
            ) from None

    def extend(self, extra: Iterable[str]) -> "ParamRing":
        """Ring with `extra` names appended after the existing ones."""
        new = [name for name in extra if name not in self._index]
        return ParamRing(self.names + tuple(new))

    # -- polynomial-level constructors -------------------------------------

    def poly_zero(self) -> "ParamPoly":
        return ParamPoly._raw(self, {})

    def poly_const(self, value: RatLike) -> "ParamPoly":
        value = _coefficient(value)
        if not value:
            return self.poly_zero()
        return ParamPoly._raw(self, {self._zero_exp: value})

    def poly_one(self) -> "ParamPoly":
        return self._one

    def poly_param(self, name: str) -> "ParamPoly":
        i = self.index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(self.names)))
        return ParamPoly._raw(self, {exp: 1})

    # -- scalar-level constructors ------------------------------------------

    def zero(self) -> "ParamScalar":
        return ParamScalar._raw(self.poly_zero(), self.poly_one())

    def const(self, value: RatLike) -> "ParamScalar":
        return ParamScalar._raw(self.poly_const(value), self.poly_one())

    def one(self) -> "ParamScalar":
        return self.const(1)

    def param(self, name: str) -> "ParamScalar":
        return ParamScalar._raw(self.poly_param(name), self.poly_one())


def _grlex_key(exp: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (sum(exp), exp)


class ParamPoly(_Subtraction, _Powers):
    """Multivariate polynomial over Q in the ring's parameters.

    ``terms`` maps exponent tuples (one slot per ring name) to nonzero
    rational coefficients, each an ``int`` when integral and a ``Fraction``
    otherwise.  Display and leading-term selection use graded lexicographic
    order, descending.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: ParamRing, terms: Mapping | Iterable = ()):
        width = len(ring.names)
        items = terms.items() if isinstance(terms, Mapping) else terms
        checked = []
        for exp, coeff in items:
            exp = tuple(exp)
            if len(exp) != width:
                raise ValueError(f"exponent {exp!r} does not fit {width} parameters")
            if any(not isinstance(e, int) or e < 0 for e in exp):
                raise ValueError(f"exponents must be nonnegative integers, got {exp!r}")
            checked.append((exp, _coefficient(coeff)))
        self.ring = ring
        self.terms = _add_into({}, checked)

    @classmethod
    def _raw(cls, ring: ParamRing, terms: dict) -> "ParamPoly":
        # Trusted constructor: `terms` is already canonical (no zeros).
        self = object.__new__(cls)
        self.ring = ring
        self.terms = terms
        return self

    # -- predicates and views -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        terms = self.terms
        return not terms or (len(terms) == 1 and self.ring._zero_exp in terms)

    def is_one(self) -> bool:
        if self is self.ring._one:
            return True
        terms = self.terms
        return len(terms) == 1 and terms.get(self.ring._zero_exp) == 1

    def constant_value(self) -> int | Fraction:
        if not self.terms:
            return 0
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        """Largest exponent sum; -1 marks the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(exp) for exp in self.terms)

    def leading(self) -> tuple[tuple[int, ...], int | Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    def free_params(self) -> frozenset[str]:
        names = self.ring.names
        out = set()
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    out.add(names[i])
        return frozenset(out)

    # -- ring plumbing ----------------------------------------------------------

    def lift(self, ring: ParamRing) -> "ParamPoly":
        """Reinterpret over a ring whose names include this ring's names."""
        if ring == self.ring:
            return self
        pos = [ring.index(name) for name in self.ring.names]
        width = len(ring.names)
        terms = {}
        for exp, coeff in self.terms.items():
            new = [0] * width
            for p, e in zip(pos, exp):
                new[p] = e
            terms[tuple(new)] = coeff
        return ParamPoly._raw(ring, terms)

    def as_scalar(self) -> "ParamScalar":
        return ParamScalar._raw(self, self.ring.poly_one())

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other) -> "ParamPoly | None":
        if isinstance(other, ParamPoly):
            _same_rings(self.ring, other.ring)
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.poly_const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ParamPoly._raw(self.ring, _add_into(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly._raw(self.ring, {exp: -c for exp, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        const, poly = (other, self) if other.is_constant() else (self, other)
        if const.is_constant():
            # one product per term; a product of nonzero rationals is nonzero
            if not const.terms:
                return const
            return ParamPoly._raw(self.ring, _times(poly.terms, next(iter(const.terms.values()))))
        acc: dict = {}  # neither side is constant, so the ring has names
        _mul_into(acc, self.terms.items(), other.terms.items())
        return _poly(self.ring, acc)

    __rmul__ = __mul__

    def try_div(self, divisor: "ParamPoly") -> "ParamPoly | None":
        """Exact quotient self/divisor, or None when division is inexact."""
        _same_rings(self.ring, divisor.ring)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return self
        lexp, lc = divisor.leading()
        rem = dict(self.terms)
        quot: dict[tuple[int, ...], int | Fraction] = {}
        while rem:
            rexp = max(rem, key=_grlex_key)
            diff = tuple(map(sub, rexp, lexp))
            if any(e < 0 for e in diff):
                return None
            q = _div(rem[rexp], lc)
            quot[diff] = q
            _add_into(rem, ((tuple(map(add, diff, e)), c) for e, c in divisor.terms.items()), -q)
        return ParamPoly._raw(self.ring, quot)

    def exact_div(self, divisor: "ParamPoly") -> "ParamPoly":
        out = self.try_div(divisor)
        if out is None:
            raise ValueError(f"inexact polynomial division: ({self}) / ({divisor})")
        return out

    def content_fraction(self) -> int | Fraction:
        """Rational content carrying the sign of the leading coefficient."""
        if not self.terms:
            return 0
        num = 0
        den = 1
        for coeff in self.terms.values():
            num = _int_gcd(num, coeff.numerator)
            den = den * coeff.denominator // _int_gcd(den, coeff.denominator)
        if self.leading()[1] < 0:
            num = -num
        return num if den == 1 else Fraction(num, den)

    def primitive(self) -> "ParamPoly":
        """Coprime int coefficients, positive leading coefficient."""
        if not self.terms:
            return self
        content = self.content_fraction()
        num, den = content.numerator, content.denominator
        if den == 1:
            terms = {exp: c // num for exp, c in self.terms.items()}
        else:
            # c / (num/den) with den a multiple of c's denominator: an exact int quotient
            terms = {
                exp: c.numerator * (den // c.denominator) // num
                for exp, c in self.terms.items()
            }
        return ParamPoly._raw(self.ring, terms)

    # -- substitution ------------------------------------------------------------

    def substitute(self, bindings: Mapping[str, "RatLike | ParamScalar"]) -> "ParamScalar":
        """Bind some parameters to values; unbound parameters survive.

        Term by term: (the term with its bound parameters dropped) times
        prod value_i^e_i over the bound parameters it mentions.
        """
        ring = self.ring
        values = {ring.index(name): _coerce_scalar(ring, v) for name, v in bindings.items()}
        out = ring.zero()
        for exp, coeff in self.terms.items():
            rest = tuple(0 if i in values else e for i, e in enumerate(exp))
            term = ParamPoly._raw(ring, {rest: coeff}).as_scalar()
            for i, value in values.items():
                if exp[i]:
                    term = term * value ** exp[i]
            out = out + term
        return out

    # -- equality and display ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring.names, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        names = self.ring.names
        parts: list[str] = []
        for exp in sorted(self.terms, key=_grlex_key, reverse=True):
            coeff = self.terms[exp]
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, exp)
                if e
            ]
            mono = "*".join(factors)
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            parts.append(_join_term(parts, (coeff < 0, body)))
        return "".join(parts) or "0"

    def __repr__(self) -> str:
        return f"ParamPoly({self})"


# -- multivariate gcd ------------------------------------------------------------
#
# mpoly_gcd tries GCDHEU first (Char, Geddes and Gonnet 1989; Geddes, Czapor
# and Labahn 1992, section 7.7) on integer coefficient dicts: evaluate the
# highest variable present at an integer xi, recurse down to Python ints, and
# rebuild that variable xi-adically from the digits of the integer gcd.  A
# candidate is accepted only when it divides both inputs exactly; with
# xi >= 2 min(|a|, |b|) + 2 that makes it the gcd, not a probable one.  When
# the check keeps failing, the primitive-PRS Euclid below (_gcd_rec) runs
# instead: it recurses on the highest parameter index present, with contents
# computed by the same routine one level down, and is only meaningful up to
# rational units internally; mpoly_gcd normalizes at the end.

_HEU_TRIES = 6


def _low_exp(exps: Iterable[tuple[int, ...]]) -> tuple[int, ...]:
    """Componentwise minimum: the monomial gcd of a single term with anything."""
    return tuple(map(min, zip(*exps)))


def _heu_eval(a: dict, k: int, xi: int) -> dict:
    """a with variable k set to xi, exponent slot k left at 0."""
    powers = {e: xi**e for e in {exp[k] for exp in a}}
    terms = ((exp[:k] + (0,) + exp[k + 1 :], v * powers[exp[k]]) for exp, v in a.items())
    return _add_into({}, terms)


def _heu_rebuild(g: dict, k: int, xi: int) -> dict:
    """Variable k read back from the xi-adic digits of g, in the symmetric range."""
    half = xi // 2
    out = {}
    for exp, v in g.items():
        i = 0
        while v:
            r = v % xi
            if r > half:
                r -= xi
            if r:
                out[exp[:k] + (i,) + exp[k + 1 :]] = r
            v = (v - r) // xi
            i += 1
    return out


def _gcd_heu(ring: ParamRing, a: dict, b: dict) -> dict | None:
    """gcd in Z[params] of integer coefficient dicts, or None when GCDHEU gives up.

    The result carries gcd(cont a, cont b): an inner level must keep it, since
    a factor in the evaluated variable (z -> xi) turns into integer content.
    """
    if not a or not b:
        # a zero operand of mpoly_gcd, or an evaluation at xi (on the side of larger norm)
        return a or b
    ca, cb = _int_gcd(*a.values()), _int_gcd(*b.values())
    c = _int_gcd(ca, cb)
    if len(a) == 1 or len(b) == 1:
        return {_low_exp(a.keys() | b.keys()): c}
    a = {e: v // ca for e, v in a.items()}
    b = {e: v // cb for e, v in b.items()}
    k = _max_var(a.keys() | b.keys())
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 2
    pa, pb = ParamPoly._raw(ring, a), ParamPoly._raw(ring, b)
    for _ in range(_HEU_TRIES):
        g = _gcd_heu(ring, _heu_eval(a, k, xi), _heu_eval(b, k, xi))
        if g is None:
            return None
        g = _heu_rebuild(g, k, xi)
        cg = _int_gcd(*g.values())
        g = {e: v // cg for e, v in g.items()}
        pg = ParamPoly._raw(ring, g)
        if pa.try_div(pg) is not None and pb.try_div(pg) is not None:
            return {e: c * v for e, v in g.items()}
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    return None


def _max_var(exps: Iterable[tuple[int, ...]]) -> int | None:
    best = None
    for exp in exps:
        for i in range(len(exp) - 1, -1, -1):
            if exp[i]:
                if best is None or i > best:
                    best = i
                break
    return best


def _deg_in_idx(p: ParamPoly, k: int) -> int:
    """Degree of p in variable k (an index into the ring's names); -1 for zero."""
    if not p.terms:
        return -1
    return max(exp[k] for exp in p.terms)


def _split_by_var(p: ParamPoly, k: int) -> dict[int, ParamPoly]:
    """Coefficient polynomials of p viewed as univariate in variable k."""
    buckets: dict[int, dict] = {}
    for exp, coeff in p.terms.items():
        e = exp[k]
        rest = exp[:k] + (0,) + exp[k + 1 :]
        buckets.setdefault(e, {})[rest] = coeff
    return {e: ParamPoly._raw(p.ring, terms) for e, terms in buckets.items()}


def _shift_var(p: ParamPoly, k: int, d: int) -> ParamPoly:
    if not d:
        return p
    terms = {
        exp[:k] + (exp[k] + d,) + exp[k + 1 :]: coeff for exp, coeff in p.terms.items()
    }
    return ParamPoly._raw(p.ring, terms)


def _lead_coeff_in(p: ParamPoly, k: int) -> ParamPoly:
    d = _deg_in_idx(p, k)
    return _split_by_var(p, k)[d]


def _prem(a: ParamPoly, b: ParamPoly, k: int) -> ParamPoly:
    """Pseudo-remainder of a by b in variable k (up to a unit of the base)."""
    db = _deg_in_idx(b, k)
    lb = _lead_coeff_in(b, k)
    r = a
    while not r.is_zero() and _deg_in_idx(r, k) >= db:
        d = _deg_in_idx(r, k) - db
        lr = _lead_coeff_in(r, k)
        r = lb * r - lr * _shift_var(b, k, d)
    return r


def _content_primitive(p: ParamPoly, k: int) -> tuple[ParamPoly, ParamPoly]:
    parts = list(_split_by_var(p, k).values())
    content = parts[0]
    for part in parts[1:]:
        if content.is_constant():
            break
        content = _gcd_rec(content, part)
    if content.is_constant():
        return p.ring.poly_one(), p
    primitive = p.try_div(content)
    if primitive is None:
        raise RuntimeError("internal error: content does not divide its polynomial")
    return content, primitive


def _gcd_rec(a: ParamPoly, b: ParamPoly) -> ParamPoly:
    ka = _max_var(a.terms)
    kb = _max_var(b.terms)
    if ka is None or kb is None:
        return a.ring.poly_one()
    k = max(ka, kb)
    ca, pa = _content_primitive(a, k)
    cb, pb = _content_primitive(b, k)
    c = _gcd_rec(ca, cb)
    # keep numeric content at 1 as well: pseudo-remainders square the
    # coefficient size per step unless both contents are stripped
    pa = pa.primitive()
    pb = pb.primitive()
    if _deg_in_idx(pa, k) < _deg_in_idx(pb, k):
        pa, pb = pb, pa
    while True:
        db = _deg_in_idx(pb, k)
        if db < 0:
            break
        if db == 0:
            # pb is primitive of degree zero in k, hence a unit at this level.
            pa = a.ring.poly_one()
            break
        r = _prem(pa, pb, k)
        pa = pb
        pb = r if r.is_zero() else _content_primitive(r, k)[1].primitive()
    return c * pa


def mpoly_gcd(a: ParamPoly, b: ParamPoly) -> ParamPoly:
    """Greatest common divisor, primitive with positive leading coefficient.

    a/gcd and b/gcd are always exact; gcd(0, b) is b made primitive, so
    gcd(0, 0) = 0, and constants behave as units (gcd 1).  A single-term
    operand gives the monomial of the smallest exponents over both operands.
    Otherwise GCDHEU runs on the primitive integer parts, and its answer
    stands only after it divides both of them exactly; when it gives up, the
    primitive PRS (_gcd_rec) decides.
    """
    _same_rings(a.ring, b.ring)
    ring = a.ring
    # kept: _gcd_heu needs primitive() of both, and every gcd of decide has such an operand
    if len(a.terms) == 1 or len(b.terms) == 1:
        low = _low_exp(a.terms.keys() | b.terms.keys())
        return ParamPoly._raw(ring, {low: 1}) if any(low) else ring.poly_one()
    g = _gcd_heu(ring, a.primitive().terms, b.primitive().terms)
    if g is None:
        return _gcd_rec(a, b).primitive()
    return ParamPoly._raw(ring, g).primitive()


def _clear_denominators(ring: ParamRing, scalars) -> tuple[list[ParamPoly], ParamPoly]:
    """(numerators, d) with scalars[i] == numerators[i] / d, d the lcm of the denominators.

    d is the ring's shared unit when every denominator is 1.
    """
    d = ring.poly_one()
    for c in scalars:
        if not c.den.is_one():
            d = d * c.den.exact_div(mpoly_gcd(d, c.den))
    if d.is_one():
        return [c.num for c in scalars], d
    return [c.num * d.exact_div(c.den) for c in scalars], d


def _same_rings(a: ParamRing, b: ParamRing) -> None:
    """Raise unless a and b are one ring; usually they are the same object."""
    if a is not b and a != b:
        raise ValueError(f"mixed parameter rings: {a.names!r} vs {b.names!r}")


def _coerce_scalar(ring: ParamRing, value) -> "ParamScalar":
    """value as a ParamScalar over ring: ValueError for another ring, TypeError for no scalar."""
    if type(value) is ParamScalar and value.num.ring is ring:
        return value
    if isinstance(value, (ParamScalar, ParamPoly)):
        _same_rings(value.ring, ring)
        return value if isinstance(value, ParamScalar) else value.as_scalar()
    if isinstance(value, (int, Fraction)):
        return ring.const(value)
    raise TypeError(f"cannot interpret {value!r} as a scalar")


class ParamScalar(_Subtraction):
    """Element of Q(parameters) in canonical reduced form.

    Invariants: gcd(num, den) is constant; den is primitive with integer
    coefficients and positive leading coefficient; a constant denominator is
    always exactly 1.  Zero is 0/1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: ParamPoly, den: ParamPoly | None = None):
        if den is None:
            den = num.ring.poly_one()
        _same_rings(num.ring, den.ring)
        self.num, self.den = _scalar_normalize(num, den)

    @classmethod
    def _raw(cls, num: ParamPoly, den: ParamPoly) -> "ParamScalar":
        # Trusted constructor: (num, den) already canonical.
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    @property
    def ring(self) -> ParamRing:
        return self.num.ring

    # -- predicates and views -----------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_numeric(self) -> bool:
        return self.num.is_constant() and self.den.is_one()

    def numeric_value(self) -> int | Fraction:
        if not self.is_numeric():
            raise ValueError(f"not a numeric scalar: {self}")
        return self.num.constant_value()

    def free_params(self) -> frozenset[str]:
        return self.num.free_params() | self.den.free_params()

    def lift(self, ring: ParamRing) -> "ParamScalar":
        if ring == self.ring:
            return self
        return ParamScalar._raw(self.num.lift(ring), self.den.lift(ring))

    # -- arithmetic ---------------------------------------------------------------

    def _coerce(self, other) -> "ParamScalar | None":
        if type(other) is ParamScalar and other.num.ring is self.num.ring:
            return other
        try:
            return _coerce_scalar(self.ring, other)
        except TypeError:
            return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return ParamScalar._raw(self.num + other.num, self.den)
        if self.den == other.den:
            return ParamScalar(self.num + other.num, self.den)
        return ParamScalar(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return ParamScalar._raw(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return ParamScalar._raw(self.num * other.num, self.den)
        return ParamScalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        return ParamScalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def _scale(self, factor: RatLike) -> "ParamScalar":
        """self * factor for a nonzero int or Fraction: one product per term, none for zero."""
        if not self.num.terms:
            return self
        terms = _times(self.num.terms, _coefficient(factor))
        return ParamScalar._raw(ParamPoly._raw(self.ring, terms), self.den)

    def __pow__(self, power: int):
        if not isinstance(power, int):
            raise ValueError(f"scalar power must be an integer, got {power!r}")
        if power < 0:
            if self.is_zero():
                raise ZeroDivisionError("zero cannot be raised to a negative power")
            return ParamScalar(self.den**(-power), self.num**(-power))
        return ParamScalar._raw(self.num**power, self.den**power)

    # -- substitution ---------------------------------------------------------------

    def substitute(self, bindings: Mapping[str, "RatLike | ParamScalar"]) -> "ParamScalar":
        """Bind parameters to values; raises PoleError if the denominator dies."""
        num = self.num.substitute(bindings)
        den = self.den.substitute(bindings)
        if den.is_zero():
            raise PoleError(f"denominator ({self.den}) vanishes under {_show_bindings(bindings)}")
        return num / den

    # -- equality and display ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, ParamPoly)):
            return self.den.is_one() and self.num == other
        if not isinstance(other, ParamScalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return bool(self.num.terms)

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"ParamScalar({self})"


def _scalar_normalize(num: ParamPoly, den: ParamPoly) -> tuple[ParamPoly, ParamPoly]:
    ring = num.ring
    if den.is_zero():
        raise ZeroDivisionError("scalar with zero denominator")
    if num.is_zero():
        return ring.poly_zero(), ring.poly_one()
    if den.is_constant():
        c = den.constant_value()
        if c == 1:
            return num, den
        return num * _div(1, c), ring.poly_one()
    g = mpoly_gcd(num, den)
    if not g.is_constant():
        num = num.exact_div(g)
        den = den.exact_div(g)
        if den.is_constant():
            return _scalar_normalize(num, den)
    content = den.content_fraction()
    if content != 1:
        num = num * _div(1, content)
        den = den.primitive()
    return num, den


def _show_bindings(bindings: Mapping) -> str:
    inner = ", ".join(f"{k}={v}" for k, v in sorted(bindings.items(), key=lambda kv: kv[0]))
    return "{" + inner + "}"
