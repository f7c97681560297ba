"""Exact Laurent polynomial arithmetic over the rationals and prime fields.

A Laurent polynomial is stored as ``x^shift * q(x)`` where q is a dense
coefficient tuple with nonzero constant term; the zero polynomial is the
distinguished value with empty coefficients.  The units of the Laurent ring
are exactly the monomials ``k * x^m``, so the canonical associate of f
(monic q, recorded shift) names the ideal f generates: two polynomials
generate the same ideal iff their canonical q parts agree.

Supported coefficient fields are the rationals (:data:`QQ`) and prime fields
``GF(p)`` for p prime.  Factorization over GF(p) runs squarefree
decomposition, distinct-degree splitting and seeded Cantor-Zassenhaus;
factorization over the rationals is Zassenhaus's: the same GF(p) pipeline
modulo a small prime, Hensel lifting and recombination of the lifted factors.
It is limited to degree 8 (inputs beyond that are rejected loudly), which
bounds the recombination at 2^8 trial divisors.  Factorizations are memoized
on the unit-free canonical associate, for the last 16 distinct inputs.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Tuple

from .errors import InternalInconsistencyError, LaurentError

_Q_FACTOR_DEGREE_BOUND = 8
# Enough for the test polynomials and factors that one analysis factors over
# and over (ROADMAP, memoized `factor`, says why the memo is not larger).
_FACTOR_MEMO_SIZE = 16
_factor_memo: Dict["LaurentPoly", Mapping] = {}  # insertion order: the oldest entry goes first


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field of rational numbers; coefficients are Fractions."""

    name = "Q"
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def coerce(self, x) -> Fraction:
        return Fraction(x)

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        return a / b

    def neg(self, a):
        return -a

    def scale_int(self, k, a):
        return k * a

    def __repr__(self):
        return "QQ"

    def __hash__(self):
        return hash("field:Q")

    def __eq__(self, other):
        return isinstance(other, Rationals)


QQ = Rationals()


class _Residues:
    """Z/m for a modulus m >= 2, kept in ``p``; ``div`` is defined for units only.

    Over Q, factoring lifts GF(p) factors to Z/p^k in this ring.
    """

    zero = 0
    one = 1

    def __init__(self, m: int):
        self.p = m

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def div(self, a, b):
        return a * pow(b, -1, self.p) % self.p

    def neg(self, a):
        return -a % self.p

    def scale_int(self, k, a):
        return k * a % self.p


class PrimeField(_Residues):
    """GF(p) for prime p; coefficients are ints in ``range(p)``."""

    def __init__(self, p: int):
        if not isinstance(p, int) or p > 2**31 or not _is_prime(p):
            raise LaurentError(f"modulus {p!r} is not a supported prime")
        super().__init__(p)
        self.name = f"F{p}"

    def coerce(self, x) -> int:
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise LaurentError(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return int(x) % self.p

    def __repr__(self):
        return f"GF({self.p})"

    def __hash__(self):
        return hash(("field:Fp", self.p))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_string(text: str):
    """Parse a field tag: "Q" or "Fp:<prime>"."""
    if text == "Q":
        return QQ
    m = re.fullmatch(r"Fp:(\d+)", text)
    if not m:
        raise LaurentError(f"unknown field tag {text!r} (expected 'Q' or 'Fp:p')")
    return PrimeField(int(m.group(1)))


def field_to_string(field) -> str:
    return "Q" if isinstance(field, Rationals) else f"Fp:{field.p}"


# -- dense polynomial helpers (ascending coefficient tuples, high zeros trimmed)


def _trim(cs: List) -> Tuple:
    i = len(cs)
    while i > 0 and cs[i - 1] == 0:
        i -= 1
    return tuple(cs[:i])


def _padd(F, a, b):
    n = max(len(a), len(b))
    return _trim([F.add(a[i] if i < len(a) else F.zero, b[i] if i < len(b) else F.zero) for i in range(n)])


def _psub(F, a, b):
    n = max(len(a), len(b))
    return _trim([F.sub(a[i] if i < len(a) else F.zero, b[i] if i < len(b) else F.zero) for i in range(n)])


def _pmul(F, a, b):
    if not a or not b:
        return ()
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    return _trim(out)


def _pdivmod(F, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [F.zero] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + len(b) - 1]
        if c == 0:
            continue
        q = F.div(c, lead)
        quo[i] = q
        for j, bj in enumerate(b):
            rem[i + j] = F.sub(rem[i + j], F.mul(q, bj))
    return _trim(quo), _trim(rem)


def _pmonic(F, a):
    if not a or a[-1] == F.one:
        return tuple(a)
    inv = F.div(F.one, a[-1])
    return tuple(F.mul(c, inv) for c in a)


def _pgcd(F, a, b):
    a, b = tuple(a), tuple(b)
    while b:
        a, b = b, _pdivmod(F, a, b)[1]
    return _pmonic(F, a)


def _pderiv(F, a):
    return _trim([F.scale_int(i, a[i]) for i in range(1, len(a))])


@dataclass(frozen=True)
class LaurentPoly:
    """Immutable ``x^shift * q(x)`` with ``q(0) != 0`` (or the zero value)."""

    field: object
    shift: int
    coeffs: Tuple

    def __post_init__(self):
        if self.coeffs:
            if self.coeffs[0] == 0 or self.coeffs[-1] == 0:
                raise LaurentError("coefficients must have nonzero constant and leading term")
        elif self.shift != 0:
            raise LaurentError("the zero polynomial has shift 0")

    @classmethod
    def from_coeffs(cls, field, coeffs: Iterable, shift: int = 0) -> "LaurentPoly":
        cs = [field.coerce(c) for c in coeffs]
        i = len(cs)
        while i > 0 and cs[i - 1] == 0:
            i -= 1
        cs = cs[:i]
        j = 0
        while j < len(cs) and cs[j] == 0:
            j += 1
        if j == len(cs):
            return cls(field, 0, ())
        return cls(field, shift + j, tuple(cs[j:]))

    @classmethod
    def zero(cls, field) -> "LaurentPoly":
        return cls(field, 0, ())

    @classmethod
    def one(cls, field) -> "LaurentPoly":
        return cls(field, 0, (field.one,))

    @classmethod
    def x(cls, field) -> "LaurentPoly":
        return cls(field, 1, (field.one,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the q part; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_unit(self) -> bool:
        return len(self.coeffs) == 1

    @property
    def is_canonical(self) -> bool:
        return self.is_zero or self.coeffs[-1] == self.field.one

    def canon(self) -> "LaurentPoly":
        """Canonical associate: q made monic, the factored-out x^shift kept."""
        if self.is_zero or self.is_canonical:
            return self
        F = self.field
        inv = F.div(F.one, self.coeffs[-1])
        return LaurentPoly(F, self.shift, tuple(F.mul(c, inv) for c in self.coeffs))

    def unit_free(self) -> "LaurentPoly":
        """Canonical associate with the monomial unit dropped (shift 0)."""
        c = self.canon()
        if c.shift == 0:
            return c
        return LaurentPoly(c.field, 0, c.coeffs)

    def _binop(self, other, op):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        _same_field(self, other)
        F = self.field
        if self.is_zero:
            a, b, base = (), other.coeffs, other.shift
        elif other.is_zero:
            a, b, base = self.coeffs, (), self.shift
        else:
            base = min(self.shift, other.shift)
            a = (F.zero,) * (self.shift - base) + self.coeffs
            b = (F.zero,) * (other.shift - base) + other.coeffs
        return LaurentPoly.from_coeffs(F, op(F, a, b), base)

    def __add__(self, other):
        return self._binop(other, _padd)

    def __sub__(self, other):
        return self._binop(other, _psub)

    def __neg__(self):
        return LaurentPoly(self.field, self.shift, tuple(self.field.neg(c) for c in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        _same_field(self, other)
        if self.is_zero or other.is_zero:
            return LaurentPoly.zero(self.field)
        return LaurentPoly(self.field, self.shift + other.shift, _pmul(self.field, self.coeffs, other.coeffs))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise LaurentError("exponent must be a non-negative integer")
        out = LaurentPoly.one(self.field)
        for _ in range(n):
            out = out * self
        return out

    def sort_key(self):
        return (len(self.coeffs), self.shift, tuple(str(c) for c in self.coeffs))

    def __str__(self):
        if self.is_zero:
            return "0"
        rational = isinstance(self.field, Rationals)
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = self.shift + i
            if rational and c < 0:
                sign, mag = "-", -c
            else:
                sign, mag = "+", c
            if e == 0:
                body = str(mag)
            else:
                xpart = "x" if e == 1 else f"x^{e}"
                body = ("" if mag == 1 else str(mag)) + xpart
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += sign + body
        return out

    def __repr__(self):
        return f"LaurentPoly({self.field.name}, {str(self)!r})"


def _same_field(f: LaurentPoly, g: LaurentPoly):
    if f.field != g.field:
        raise LaurentError(f"field mismatch: {f.field.name} vs {g.field.name}")


_TERM_RE = re.compile(r"^(?:(\d+(?:/\d+)?)\*?)?(x(?:\^(-?\d+))?)?$")


def parse_poly(field, text: str) -> LaurentPoly:
    """Parse literals like ``1+3x^2-x^5`` or ``x^-1+1`` (coefficients may be a/b)."""
    s = re.sub(r"\s+", "", text)
    if not s:
        raise LaurentError("empty polynomial literal")
    if s == "0":
        return LaurentPoly.zero(field)
    if s[0] not in "+-":
        s = "+" + s
    tokens = re.findall(r"([+-])((?:[^+-]|(?<=\^)-)+)", s)
    if sum(len(sig) + len(body) for sig, body in tokens) != len(s):
        raise LaurentError(f"cannot parse polynomial literal {text!r}")
    terms: Dict[int, object] = {}
    for sign, body in tokens:
        m = _TERM_RE.match(body)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise LaurentError(f"bad term {body!r} in polynomial literal {text!r}")
        coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        if sign == "-":
            coeff = -coeff
        if m.group(2) is None:
            exp = 0
        elif m.group(3) is None:
            exp = 1
        else:
            exp = int(m.group(3))
        val = field.coerce(coeff)
        terms[exp] = field.add(terms.get(exp, field.zero), val)
    if not terms:
        return LaurentPoly.zero(field)
    lo, hi = min(terms), max(terms)
    coeffs = [terms.get(e, field.zero) for e in range(lo, hi + 1)]
    return LaurentPoly.from_coeffs(field, coeffs, lo)


def divides(f: LaurentPoly, g: LaurentPoly) -> bool:
    """True iff f divides g in the Laurent ring (monomial units invisible)."""
    _same_field(f, g)
    if f.is_zero:
        return g.is_zero
    if g.is_zero:
        return True
    return not _pdivmod(f.field, g.coeffs, f.coeffs)[1]


def poly_gcd(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Canonical gcd; ideal semantics <f> + <g> = <gcd(f, g)>."""
    _same_field(f, g)
    if f.is_zero and g.is_zero:
        raise LaurentError("gcd(0, 0) is undefined")
    if f.is_zero:
        return g.canon()
    if g.is_zero:
        return f.canon()
    return LaurentPoly(f.field, 0, _pgcd(f.field, f.coeffs, g.coeffs))


def poly_lcm(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Canonical lcm; ideal semantics <f> & <g> = <lcm(f, g)>."""
    _same_field(f, g)
    if f.is_zero or g.is_zero:
        return LaurentPoly.zero(f.field)
    F = f.field
    d = _pgcd(F, f.coeffs, g.coeffs)
    q, r = _pdivmod(F, _pmul(F, f.coeffs, g.coeffs), d)
    if r:
        raise InternalInconsistencyError("gcd does not divide the product")
    return LaurentPoly(F, 0, _pmonic(F, q))


# -- factorization over GF(p)


def _fp_sqfree_parts(F: PrimeField, f: Tuple) -> List[Tuple[Tuple, int]]:
    """Squarefree decomposition of monic f: pairwise coprime (part, multiplicity)."""
    p = F.p
    out: List[Tuple[Tuple, int]] = []
    e = 1
    f = _pmonic(F, f)
    while len(f) > 1:
        d = _pderiv(F, f)
        if d:
            c = _pgcd(F, f, d)
            w = _pdivmod(F, f, c)[0]
            i = 1
            while len(w) > 1:
                y = _pgcd(F, w, c)
                z = _pdivmod(F, w, y)[0]
                if len(z) > 1:
                    out.append((_pmonic(F, z), i * e))
                w = y
                c = _pdivmod(F, c, y)[0]
                i += 1
            f = _pmonic(F, c)
            if len(f) > 1 and _pderiv(F, f):
                raise InternalInconsistencyError("squarefree residual has nonzero derivative")
        if len(f) > 1:
            # f = g(x^p); the p-th root has the same coefficients (Frobenius)
            f = _trim(list(f[::p]))
            e *= p
    return out


def _fp_powmod(F: PrimeField, a: Tuple, n: int, mod: Tuple) -> Tuple:
    result = (F.one,)
    base = _pdivmod(F, a, mod)[1]
    while n:
        if n & 1:
            result = _pdivmod(F, _pmul(F, result, base), mod)[1]
        base = _pdivmod(F, _pmul(F, base, base), mod)[1]
        n >>= 1
    return result


def _fp_distinct_degree(F: PrimeField, f: Tuple) -> List[Tuple[Tuple, int]]:
    """Split monic squarefree f into (product of irreducibles of degree d, d)."""
    out = []
    x = (F.zero, F.one)
    h = x
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _fp_powmod(F, h, F.p, f)
        g = _pgcd(F, _psub(F, h, x), f)
        if len(g) > 1:
            out.append((g, d))
            f = _pdivmod(F, f, g)[0]
            h = _pdivmod(F, h, f)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _fp_equal_degree(F: PrimeField, f: Tuple, d: int, rng: random.Random) -> List[Tuple]:
    """Cantor-Zassenhaus split of a monic product of degree-d irreducibles."""
    n = len(f) - 1
    if n == d:
        return [f]
    p = F.p
    while True:
        r = _trim([rng.randrange(p) for _ in range(n)])
        if len(r) <= 1:
            continue
        if p == 2:
            acc = _pdivmod(F, r, f)[1]
            t = acc
            for _ in range(d - 1):
                t = _pdivmod(F, _pmul(F, t, t), f)[1]
                acc = _padd(F, acc, t)
            g = _pgcd(F, acc, f)
        else:
            t = _fp_powmod(F, r, (p**d - 1) // 2, f)
            g = _pgcd(F, _psub(F, t, (F.one,)), f)
        if 1 < len(g) < len(f):
            rest = _pdivmod(F, f, g)[0]
            return _fp_equal_degree(F, g, d, rng) + _fp_equal_degree(F, rest, d, rng)


def _fp_factor(F: PrimeField, f: Tuple) -> Dict[Tuple, int]:
    rng = random.Random(0xC0FFEE)
    out: Dict[Tuple, int] = {}
    for part, mult in _fp_sqfree_parts(F, f):
        for prod, d in _fp_distinct_degree(F, part):
            for irr in _fp_equal_degree(F, prod, d, rng):
                out[_pmonic(F, irr)] = out.get(_pmonic(F, irr), 0) + mult
    return out


# -- factorization over the rationals


def _q_sqfree_parts(f: Tuple) -> List[Tuple[Tuple, int]]:
    """Yun's squarefree decomposition of a monic rational polynomial."""
    F = QQ
    out = []
    fd = _pderiv(F, f)
    a = _pgcd(F, f, fd)
    b = _pdivmod(F, f, a)[0]
    c = _pdivmod(F, fd, a)[0]
    d = _psub(F, c, _pderiv(F, b))
    i = 1
    while len(b) > 1:
        ai = _pgcd(F, b, d)
        b = _pdivmod(F, b, ai)[0]
        c = _pdivmod(F, d, ai)[0]
        d = _psub(F, c, _pderiv(F, b))
        if len(ai) > 1:
            out.append((_pmonic(F, ai), i))
        i += 1
    return out


def _to_primitive_int(q: Tuple[Fraction, ...]) -> Tuple[int, ...]:
    den = 1
    for c in q:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in q]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    return tuple(c // g for c in ints)


def _hensel_lift(F: PrimeField, P: Tuple[int, ...], modular: List[Tuple], m: int) -> List[Tuple]:
    """Lift the monic irreducible factors of P mod p to monic factors of P mod m = p^k.

    Linear lifting: if P = lc * prod(g_i) mod q, adding q * a_i to each g_i
    with a_i = e * c_i mod g_i makes it hold mod q*p, where e = (P - lc *
    prod(g_i)) / q and c_i inverts P / g_i modulo g_i (mod p).
    """
    p = F.p
    fp = tuple(c % p for c in P)
    # GF(p)[x]/(g) is a field of p^deg(g) elements, so a^(p^deg(g) - 2) inverts a mod g
    cs = [_fp_powmod(F, _pdivmod(F, fp, g)[0], p ** (len(g) - 1) - 2, g) for g in modular]
    lifted, q = modular, p
    while q < m:
        R = _Residues(q * p)
        prod = (P[-1],)
        for u in lifted:
            prod = _pmul(R, prod, u)
        e = tuple(c // q for c in _psub(R, P, prod))
        lifted = [
            _padd(R, u, tuple(q * a for a in _pdivmod(F, _pmul(F, e, c), g)[1]))
            for u, c, g in zip(lifted, cs, modular)
        ]
        q *= p
    return lifted


def _q_factor_squarefree(h: Tuple[Fraction, ...]) -> List[Tuple[Fraction, ...]]:
    """Irreducible monic factors of a monic squarefree rational polynomial.

    Zassenhaus: factor the primitive integer multiple P of h modulo the
    smallest odd prime p that keeps it squarefree and of full degree, lift
    the modular factors to p^k > 2B (B = 2^deg * |P|_2 * lc(P) bounds lc(P)
    times any monic factor, Mignotte), and recombine subsets of the lifted
    factors, smallest first, into trial divisors.
    """
    P = _to_primitive_int(h)
    lc = P[-1]
    p = 3
    while True:
        if _is_prime(p) and lc % p:
            F = PrimeField(p)
            fp = tuple(c % p for c in P)
            if len(_pgcd(F, fp, _pderiv(F, fp))) == 1:
                break
        p += 2
    modular = list(_fp_factor(F, fp))
    if len(modular) == 1:
        return [h]
    bound = 2 ** (len(P) - 1) * (isqrt(sum(c * c for c in P)) + 1) * lc
    m = p
    while m <= 2 * bound:
        m *= p
    R = _Residues(m)
    lifted = _hensel_lift(F, P, modular, m)
    out = []
    s = 1
    while 2 * s <= len(lifted):
        for subset in combinations(lifted, s):
            G = (lc,)
            for u in subset:
                G = _pmul(R, G, u)
            cand = _pmonic(QQ, tuple(Fraction(c - m if 2 * c > m else c) for c in G))
            quo, rem = _pdivmod(QQ, h, cand)
            if not rem:
                out.append(cand)
                h, lc = quo, _to_primitive_int(quo)[-1]
                lifted = [u for u in lifted if u not in subset]
                break
        else:
            s += 1
    return out + [h]


def _q_factor(q: Tuple[Fraction, ...]) -> Dict[Tuple, int]:
    if len(q) - 1 > _Q_FACTOR_DEGREE_BOUND:
        raise LaurentError(
            f"degree {len(q) - 1} exceeds the supported factorization bound "
            f"{_Q_FACTOR_DEGREE_BOUND} over Q"
        )
    out: Dict[Tuple, int] = {}
    for part, mult in _q_sqfree_parts(q):
        for irr in _q_factor_squarefree(part):
            out[irr] = out.get(irr, 0) + mult
    return out


def factor(f: LaurentPoly) -> Mapping[LaurentPoly, int]:
    """Irreducible canonical factors with multiplicities, as a read-only mapping.

    Monomial units have no factors; the product of the factors always
    reconstructs the unit-free canonical associate of f (checked when it is
    first computed).  Results are memoized on that associate.
    """
    if f.is_zero:
        raise LaurentError("cannot factor the zero polynomial")
    c = f.unit_free()
    hit = _factor_memo.get(c)
    if hit is not None:
        return hit
    if c.is_unit:
        raw = {}
    elif isinstance(f.field, Rationals):
        raw = _q_factor(c.coeffs)
    else:
        raw = _fp_factor(f.field, c.coeffs)
    out = {
        LaurentPoly(f.field, 0, coeffs): mult
        for coeffs, mult in sorted(raw.items(), key=lambda kv: (len(kv[0]), tuple(map(str, kv[0]))))
    }
    check = LaurentPoly.one(f.field)
    for g, mult in out.items():
        check = check * g**mult
    if check != c:
        raise InternalInconsistencyError(f"factorization of {f} does not reconstruct the input")
    if len(_factor_memo) >= _FACTOR_MEMO_SIZE:
        del _factor_memo[next(iter(_factor_memo))]
    hit = _factor_memo[c] = MappingProxyType(out)
    return hit


def is_irreducible(f: LaurentPoly) -> bool:
    """True iff f is a single irreducible up to units; units themselves are not."""
    fac = factor(f)
    return len(fac) == 1 and next(iter(fac.values())) == 1


def squarefree_core(f: LaurentPoly) -> LaurentPoly:
    """Product of the distinct irreducible factors of f (the radical generator)."""
    if f.is_zero:
        raise LaurentError("the zero polynomial has no squarefree core")
    c = f.canon()
    if c.is_unit:
        return LaurentPoly.one(f.field)
    F = f.field
    if isinstance(F, Rationals):
        d = _pgcd(F, c.coeffs, _pderiv(F, c.coeffs))
        core, rem = _pdivmod(F, c.coeffs, d)
        if rem:
            raise InternalInconsistencyError("gcd with derivative does not divide")
        return LaurentPoly(F, 0, _pmonic(F, core))
    core = (F.one,)
    for part, _ in _fp_sqfree_parts(F, c.coeffs):
        core = _pmul(F, core, part)
    return LaurentPoly(F, 0, _pmonic(F, core))
