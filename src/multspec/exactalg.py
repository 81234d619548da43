"""Exact scalar domains and dense univariate polynomial algebra.

Scalars live in one of three coefficient domains: the rationals QQ (values
are `fractions.Fraction`), a prime field GF(p) (values are ints in [0, p)),
or the integer ring ZZ used internally to keep resultants fraction-free.

Polynomials are immutable dense coefficient tuples in ascending order.  The
zero polynomial has degree -1.  One long-division loop (`UniPoly._divide`)
serves division over QQ and division by a monic divisor over any ring.  Over
GF(p), long division, modular powers and inverses and resultants (the
Euclidean recurrence) run as ``% p`` kernels on plain ints.  Over ZZ one kernel on plain int lists takes
pseudo-remainders and runs the subresultant sequence; resultants over QQ and
the QQ gcd clear denominators and call it.  Interpolation takes the nodes
0 .. n - 1 and runs one kernel on ints over one common denominator for both
fields, reducing mod p over GF(p).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from .errors import DegenerateInputError, FieldMismatchError, InvariantError, MathError, UsageError, first_value

# ---------------------------------------------------------------------------
# primality


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


def random_prime(rng, bits: int, residue: int | None = None, modulus: int = 1) -> int:
    """Random prime with `bits` bits, optionally p = residue (mod modulus)."""
    if bits < 3:
        raise UsageError("prime size too small")
    while True:
        n = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if modulus > 1:
            n += (residue - n) % modulus
            if n.bit_length() != bits or n % 2 == 0:
                continue
        if n > 5 and is_prime(n):
            return n


# ---------------------------------------------------------------------------
# scalar domains


class Domain:
    """Common interface: exact ring operations on raw scalar values."""

    is_field = False
    char = 0

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def pow(self, a, n: int):
        r = self.one
        for _ in range(n):
            r = self.mul(r, a)
        return r

    def is_zero(self, a) -> bool:
        return a == self.zero

    def from_int(self, n: int):
        raise NotImplementedError


class RationalField(Domain):
    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    def pow(self, a, n):
        return a ** n

    def inv(self, a):
        return self.one / a  # exact for int operands too

    def div(self, a, b):
        return Fraction(a) / b

    def from_int(self, n):
        return Fraction(n)

    def from_rational(self, fr):
        return Fraction(fr)

    def rand(self, rng, height: int = 20):
        return Fraction(rng.randint(-height, height), rng.randint(1, height))

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class IntegerRing(Domain):
    zero = 0
    one = 1

    def pow(self, a, n):
        return a ** n

    def from_int(self, n):
        return n

    def __repr__(self):
        return "ZZ"

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("ZZ")


class PrimeField(Domain):
    """GF(p) for an odd prime p; values are canonical ints in [0, p)."""

    is_field = True
    zero = 0
    one = 1

    def __init__(self, p: int):
        if p < 3 or p % 2 == 0 or not is_prime(p):
            raise UsageError(f"modulus must be an odd prime, got {p}")
        self.p = p
        self.char = p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def pow(self, a, n):
        return pow(a, n, self.p)

    def inv(self, a):
        if a % self.p == 0:
            raise MathError("division by zero in GF(p)")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def from_int(self, n):
        return n % self.p

    def from_rational(self, fr):
        fr = Fraction(fr)
        if fr.denominator % self.p == 0:
            raise DegenerateInputError(f"denominator of {fr} vanishes mod {self.p}")
        return fr.numerator * pow(fr.denominator, -1, self.p) % self.p

    def rand(self, rng):
        return rng.randrange(self.p)

    def rand_nonzero(self, rng):
        return rng.randrange(1, self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()
ZZ = IntegerRing()

_GF_CACHE: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    dom = _GF_CACHE.get(p)
    if dom is None:
        dom = _GF_CACHE[p] = PrimeField(p)
    return dom


def _coerce_same(f: "UniPoly", g: "UniPoly"):
    if f.dom != g.dom or f.var != g.var:
        raise FieldMismatchError(
            f"polynomials over {f.dom!r}[{f.var}] and {g.dom!r}[{g.var}]"
        )


# ---------------------------------------------------------------------------
# dense univariate polynomials


class UniPoly:
    """Immutable dense univariate polynomial; coeffs ascending."""

    __slots__ = ("dom", "var", "coeffs")

    def __init__(self, dom: Domain, var: str, coeffs):
        cs = list(coeffs)
        while cs and dom.is_zero(cs[-1]):
            cs.pop()
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("UniPoly is immutable")

    # -- constructors

    @classmethod
    def zero(cls, dom, var):
        return cls(dom, var, ())

    @classmethod
    def const(cls, dom, var, c):
        return cls(dom, var, (c,))

    @classmethod
    def gen(cls, dom, var):
        return cls(dom, var, (dom.zero, dom.one))

    @classmethod
    def from_ints(cls, dom, var, ints):
        return cls(dom, var, [dom.from_int(n) for n in ints])

    # -- structure

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        if not self.coeffs:
            raise MathError("leading coefficient of zero polynomial")
        return self.coeffs[-1]

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.dom.zero

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.dom == other.dom
            and self.var == other.var
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if self.dom.is_zero(c):
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"({c})*{self.var}")
            else:
                parts.append(f"({c})*{self.var}^{i}")
        return " + ".join(parts)

    # -- arithmetic

    def __add__(self, other):
        _coerce_same(self, other)
        dom = self.dom
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] = dom.add(cs[i], c)
        return UniPoly(dom, self.var, cs)

    def __neg__(self):
        dom = self.dom
        return UniPoly(dom, self.var, [dom.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        _coerce_same(self, other)
        dom = self.dom
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly.zero(dom, self.var)
        cs = [dom.zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if dom.is_zero(ca):
                continue
            for j, cb in enumerate(b):
                cs[i + j] = dom.add(cs[i + j], dom.mul(ca, cb))
        return UniPoly(dom, self.var, cs)

    def __pow__(self, n: int):
        if n < 0:
            raise UsageError("negative polynomial power")
        r, b = None, self
        while n:
            if n & 1:
                r = b if r is None else r * b
            n >>= 1
            if n:
                b = b * b
        return UniPoly.const(self.dom, self.var, self.dom.one) if r is None else r

    def scale(self, c):
        dom = self.dom
        if dom.is_zero(c):
            return UniPoly.zero(dom, self.var)
        return UniPoly(dom, self.var, [dom.mul(a, c) for a in self.coeffs])

    def shift(self, k: int):
        """Multiply by var**k."""
        if self.is_zero:
            return self
        return UniPoly(self.dom, self.var, (self.dom.zero,) * k + self.coeffs)

    def monic(self):
        if self.is_zero:
            return self
        dom = self.dom
        if not dom.is_field:
            raise UsageError("monic requires a field domain")
        inv = dom.inv(self.lc)
        return self.scale(inv)

    def _divide(self, other, quotient_coeff):
        """Long division of self by other, the loop under divmod and
        monic_divmod off GF(p); quotient_coeff(c) cancels the leading
        coefficient c, so only other's lower nonzero coefficients are applied."""
        _coerce_same(self, other)
        dom = self.dom
        sub, mul = dom.sub, dom.mul
        db = other.degree
        low = [(j - db, c) for j, c in enumerate(other.coeffs[:-1]) if not dom.is_zero(c)]
        q = [dom.zero] * max(0, self.degree - db + 1)
        r = list(self.coeffs)
        for i in range(len(r) - 1, db - 1, -1):
            if dom.is_zero(r[i]):
                continue
            f = q[i - db] = quotient_coeff(r[i])
            for j, c in low:
                r[i + j] = sub(r[i + j], mul(f, c))
        return UniPoly(dom, self.var, q), UniPoly(dom, self.var, r[:db])

    def divmod(self, other):
        """Quotient and remainder over a field domain."""
        dom = self.dom
        if not dom.is_field:
            raise UsageError("divmod requires a field domain")
        if other.is_zero:
            raise MathError("polynomial division by zero")
        if isinstance(dom, PrimeField):  # % p kernel on plain ints
            _coerce_same(self, other)
            q, r = _fp_divmod(self.coeffs, other.coeffs, dom.p)
            return UniPoly(dom, self.var, q), UniPoly(dom, self.var, r)
        inv = dom.inv(other.lc)
        return self._divide(other, lambda c: dom.mul(c, inv))

    def monic_divmod(self, other):
        """Quotient and remainder by a monic divisor; ring operations only."""
        if other.is_zero or other.lc != other.dom.one:
            raise UsageError("monic_divmod needs a monic divisor")
        if isinstance(self.dom, PrimeField):
            return self.divmod(other)
        return self._divide(other, lambda c: c)

    def eval(self, c):
        dom = self.dom
        acc = dom.zero
        for a in reversed(self.coeffs):
            acc = dom.add(dom.mul(acc, c), a)
        return acc

    def map_coeffs(self, dom: Domain, fn):
        return UniPoly(dom, self.var, [fn(c) for c in self.coeffs])


def _fp_divmod(a, b, p):
    """Quotient and remainder of ascending coefficient lists over GF(p); b[-1] != 0."""
    db, low = len(b) - 1, b[:-1]
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - db)
    r = list(a)
    for i in range(len(a) - 1, db - 1, -1):
        c = q[i - db] = r[i] * inv % p
        if c:
            for j, bj in enumerate(low, i - db):
                r[j] = (r[j] - c * bj) % p
    return q, r[:db]


def _product(a, b):
    """a * b on nonempty ascending int lists, with all len(a) + len(b) - 1 entries."""
    r = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                r[j] += x * y
    return r


def _fp_mulmod(a, b, low, p):
    """a * b mod x^n + sum_j low[j] x^j over GF(p), on ascending int lists."""
    if not a or not b:
        return []
    n, r = len(low), _product(a, b)
    for k in range(len(r) - 1, n - 1, -1):
        t = r[k] % p
        if t:
            for j, c in enumerate(low, k - n):
                r[j] -= t * c
    return [c % p for c in r[:n]]


def _fp_inverse(a, mod, p):
    """a^-1 mod `mod` over GF(p) on ascending int lists, mod monic, by the extended
    Euclidean algorithm, each Bezout factor t kept mod `mod`; MathError unless a
    is a unit mod `mod`."""
    r0, r1 = mod, _stripped(_fp_divmod(a, mod, p)[1])
    t0, t1 = [], [1]
    while r1:
        q, r = _fp_divmod(r0, r1, p)
        qt = _fp_mulmod(q, t1, mod[:-1], p)
        t0, t1 = t1, _stripped([(x - y) % p for x, y in zip_longest(t0, qt, fillvalue=0)])
        r0, r1 = r1, _stripped(r)
    if len(r0) != 1:
        raise MathError("polynomial is not invertible modulo the given modulus")
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in t0]


def _stripped(cs: list) -> list:
    """cs, a coefficient list, without its zero top coefficients."""
    while cs and not cs[-1]:
        cs.pop()
    return cs


# ---------------------------------------------------------------------------
# public univariate operations


def derivative(f: UniPoly) -> UniPoly:
    """f' on native operators: ``% p`` over GF(p), coordinatewise on quotient algebra vectors."""
    p = f.dom.char
    times = (lambda i, x: i * x % p) if p else (lambda i, x: i * x)
    cs = [tuple(times(i, x) for x in c) if isinstance(c, tuple) else times(i, c) for i, c in enumerate(f.coeffs)]
    return UniPoly(f.dom, f.var, cs[1:])


def compose(f: UniPoly, g: UniPoly) -> UniPoly:
    """f(g), Horner in g."""
    if f.dom != g.dom:
        raise FieldMismatchError("compose over mismatched domains")
    acc = UniPoly.zero(g.dom, g.var)
    for c in reversed(f.coeffs):
        acc = acc * g + UniPoly.const(g.dom, g.var, c)
    return acc


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd over a field domain; gcd(0, 0) = 0."""
    _coerce_same(f, g)
    dom = f.dom
    if not dom.is_field:
        raise UsageError("poly_gcd requires a field domain")
    if dom == QQ:
        return _gcd_qq(f, g)
    a, b = f, g
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
    return a.monic()


def clear_denominators(*polys: UniPoly) -> tuple[list, int]:
    """QQ polys -> (ZZ polys d*f, least positive integer d making them all integral)."""
    den = lcm(*(c.denominator for f in polys for c in f.coeffs))
    return [f.map_coeffs(ZZ, lambda c: c.numerator * (den // c.denominator)) for f in polys], den


def _primitive(cs) -> list:
    c = gcd(*cs) or 1
    return [a // c for a in cs]


def _gcd_qq(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd over QQ via a primitive remainder sequence over ZZ."""
    if f.is_zero:
        return g.monic()
    if g.is_zero:
        return f.monic()
    (a, b), _ = clear_denominators(f, g)
    a, b = _primitive(a.coeffs), _primitive(b.coeffs)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_zz_prem(a, b))
    return UniPoly(QQ, f.var, map(Fraction, a)).monic()


def squarefree_part(f: UniPoly) -> UniPoly:
    """Monic product of the distinct irreducible factors of f (field domain)."""
    dom = f.dom
    if not dom.is_field:
        raise UsageError("squarefree_part requires a field domain")
    if f.is_zero:
        raise MathError("squarefree part of zero polynomial")
    f = f.monic()
    if f.degree == 0:
        return f
    fp = derivative(f)
    if fp.is_zero:
        # char p and f = g(x^p); over GF(p) the coefficients are their own
        # p-th roots, so descend by erasing the exponent gaps
        p = dom.char
        cs = []
        for i, c in enumerate(f.coeffs):
            if i % p == 0:
                cs.append(c)
            elif not dom.is_zero(c):
                raise MathError("inconsistent vanishing derivative")
        return squarefree_part(UniPoly(dom, f.var, cs))
    g = poly_gcd(f, fp)
    if g.degree == 0:
        return f
    w = f.divmod(g)[0]  # roots of multiplicity not divisible by char, once each
    if dom.char == 0 or dom.char > f.degree:
        return w  # no multiplicity can be divisible by the characteristic
    rest = squarefree_part(g)
    return (w * rest.divmod(poly_gcd(w, rest))[0]).monic()


# ---------------------------------------------------------------------------
# resultants


def _zz_quo(a: int, b: int) -> int:
    """a / b in ZZ where a theorem makes the division exact."""
    q, r = divmod(a, b)
    if r:
        raise InvariantError(f"inexact division by {b} in the subresultant sequence")
    return q


def _zz_prem(a, b) -> list:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b of ascending int
    lists, trailing zeros stripped; len(a) >= len(b), b[-1] != 0.

    a is scaled by that power first, so every step's quotient is exact.
    """
    lb, db, low = b[-1], len(b) - 1, b[:-1]
    scale = lb ** (len(a) - db)
    r = [c * scale for c in a]
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] // lb
        if c:
            for j, bj in enumerate(low, i - db):
                r[j] -= c * bj
    del r[db:]
    return _stripped(r)


def _zz_resultant(a, b) -> int:
    """Res over ZZ of ascending int lists of degree >= 1, by the subresultant
    polynomial remainder sequence: every division in it is exact."""
    s = 1
    if len(a) < len(b):
        if (len(a) - 1) * (len(b) - 1) % 2:
            s = -s
        a, b = b, a
    gg = h = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 and db % 2:
            s = -s
        r = _zz_prem(a, b)
        if not r:
            return 0
        a, div = b, gg * h ** delta
        b = r if div == 1 else [_zz_quo(c, div) for c in r]
        gg = a[-1]
        if delta == 1:
            h = gg
        elif delta > 1:
            h = _zz_quo(gg ** delta, h ** (delta - 1))
        if len(b) == 1:
            e = len(a) - 1
            num = b[0] ** e
            if e > 1:
                num = _zz_quo(num, h ** (e - 1))
            return -num if s < 0 else num


def _fp_resultant(a, b, p):
    """Res over GF(p) on coefficient lists, by the Euclidean recurrence
    Res(f, g) = (-1)^(deg f deg g) lc(g)^(deg f - deg r) Res(g, r), r = f mod g."""
    acc = 1
    while len(b) > 1:
        r = _stripped(_fp_divmod(a, b, p)[1])
        if not r:
            return 0
        m, n = len(a) - 1, len(b) - 1
        acc = acc * pow(b[-1], m - len(r) + 1, p) * (-1) ** (m * n) % p
        a, b = b, r
    return acc * pow(b[0], len(a) - 1, p) % p


def resultant(f: UniPoly, g: UniPoly):
    """Res(f, g) at actual degrees, an element of the coefficient domain.

    Over QQ the computation clears denominators and runs the subresultant
    sequence over ZZ, rescaling by the cleared contents:
    Res(c*f, e*g) = c^deg(g) * e^deg(f) * Res(f, g).
    """
    _coerce_same(f, g)
    dom = f.dom
    if f.is_zero or g.is_zero:
        if f.is_zero and g.is_zero:
            raise MathError("resultant of two zero polynomials")
        return dom.zero
    if f.degree == 0:
        return dom.pow(f.lc, g.degree)
    if g.degree == 0:
        return dom.pow(g.lc, f.degree)
    if isinstance(dom, PrimeField):
        return _fp_resultant(f.coeffs, g.coeffs, dom.p)
    if dom == QQ:
        (fz,), cf = clear_denominators(f)
        (gz,), cg = clear_denominators(g)
        return Fraction(_zz_resultant(fz.coeffs, gz.coeffs), cf ** g.degree * cg ** f.degree)
    if dom != ZZ:
        raise UsageError(f"no resultant over {dom!r}")
    return _zz_resultant(f.coeffs, g.coeffs)


# ---------------------------------------------------------------------------
# field-only helpers: modular powers, root finding, interpolation


def pow_mod(base: UniPoly, e: int, mod: UniPoly) -> UniPoly:
    """base**e mod `mod` over GF(p): left-to-right squaring on ascending int lists,
    from 1 mod `mod` (0 for a constant modulus)."""
    if not isinstance(base.dom, PrimeField) or e < 0:
        raise UsageError("pow_mod takes an exponent e >= 0 over a prime field")
    _coerce_same(base, mod)
    low, p = mod.monic().coeffs[:-1], base.dom.p
    b, r = list(base.divmod(mod)[1].coeffs), [1]
    for bit in bin(e)[2:]:
        r = _fp_mulmod(r, r, low, p)
        if bit == "1":
            r = _fp_mulmod(r, b, low, p)
    return UniPoly(base.dom, base.var, r)


def fp_roots(f: UniPoly, rng) -> list[int]:
    """All roots of f in GF(p), each once, sorted (equal-degree splitting)."""
    dom = f.dom
    if not isinstance(dom, PrimeField):
        raise UsageError("fp_roots requires a prime field")
    if f.is_zero:
        raise MathError("roots of the zero polynomial")
    x = UniPoly.gen(dom, f.var)
    if f.degree == 0:
        return []
    xp = pow_mod(x, dom.p, f)
    g = poly_gcd(f, xp - x)
    return sorted(split_linear(g, rng))


def split_linear(g: UniPoly, rng) -> list[int]:
    """Roots of g over GF(p), g a product of distinct linear factors."""
    dom = g.dom
    if g.degree <= 0:
        return []
    if g.degree == 1:
        return [dom.div(dom.neg(g.coeff(0)), g.coeff(1))]
    half = (dom.p - 1) // 2

    def split():  # gcd(g, (x + a)^half - 1) keeps the roots r of g with r + a a nonzero square
        h = pow_mod(UniPoly(dom, g.var, [dom.rand(rng), dom.one]), half, g)
        d = poly_gcd(g, h - UniPoly.const(dom, g.var, dom.one))
        if not 0 < d.degree < g.degree:
            raise DegenerateInputError("the gcd does not split g; draw again")
        return d

    d = first_value(split, 64, "splitting gcd")
    return split_linear(d, rng) + split_linear(g.divmod(d)[0], rng)


def interpolate(ys, dom: Domain, var: str) -> UniPoly:
    """Unique polynomial of degree < n = len(ys) through (k, ys[k]), k = 0 .. n - 1."""
    if not dom.is_field:
        raise UsageError("interpolation requires a field domain")
    # the j-th divided difference is the j-th forward difference over j!; both
    # loops run on ints, times the common denominator den (n - 1)!, and over
    # GF(p) the Horner rows are reduced mod p
    n, p = len(ys), dom.char
    den, t = lcm(*(y.denominator for y in ys)), 1
    coef, cs = [y.numerator * (den // y.denominator) for y in ys], [0] * n
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] -= coef[i - 1]
    if p:
        coef = [c % p for c in coef]
    for i in range(n - 1, -1, -1):  # t = (n - 1)! / i!
        for k in range(n - 1 - i, 0, -1):
            cs[k] = cs[k - 1] - i * cs[k]
        cs[0] = coef[i] * t - i * cs[0]
        t *= max(i, 1)
        if p:
            cs[: n - i], t = [c % p for c in cs[: n - i]], t % p
    if not p:
        return UniPoly(dom, var, [Fraction(c, den * t) for c in cs])
    scale = dom.inv(den * t)
    return UniPoly(dom, var, [c * scale % p for c in cs])


# ---------------------------------------------------------------------------
# string codecs for scalars and field descriptors


def scalar_from_str(dom: Domain, s: str):
    s = s.strip()
    try:
        if isinstance(dom, PrimeField):
            if "mod" in s:
                val, mod = s.split("mod")
                if int(mod) != dom.p:
                    raise UsageError(f"scalar {s!r} has wrong modulus for {dom!r}")
                return dom.from_int(int(val))
            return dom.from_rational(Fraction(s))
        if dom == QQ:
            return Fraction(s)
        return int(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse scalar {s!r} for {dom!r}") from exc


def field_to_str(dom: Domain) -> str:
    if dom == QQ:
        return "QQ"
    if isinstance(dom, PrimeField):
        return f"GF {dom.p}"
    raise UsageError(f"no descriptor for {dom!r}")


def field_from_str(s: str) -> Domain:
    t = s.strip()
    if t.upper() == "QQ":
        return QQ
    for sep in (":", " ", "("):
        if t.startswith("GF") and sep in t:
            body = t[2:].strip(" :()")
            try:
                return GF(int(body))
            except ValueError as exc:
                raise UsageError(f"bad field descriptor {s!r}") from exc
    raise UsageError(f"bad field descriptor {s!r}")
