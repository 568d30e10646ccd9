"""Exact arithmetic over F_{p^r} and its function field in one variable.

Provides finite field towers with canonical moduli and dense univariate
polynomials.  No series type lives here: the package reads orders and
leading coefficients in closed form, and truncated Laurent series are a
test oracle.

Serialization of a field element is
``{"p": p, "r": r, "modulus": [c0..cr], "coeffs": [a0..a_{r-1}]}``
with all integers reduced to [0, p).  Extension moduli are canonical
(the lexicographically least monic irreducible of the given degree,
coefficients compared from the top degree down), so serialized values
are reproducible across runs.  Field arithmetic runs on log/antilog
tables up to _TABLE_CAP elements; _corepy's polynomial kernels build the
tables and serve the larger fields.
"""

from __future__ import annotations

import functools
from math import gcd

from . import _corepy


class _Infinity:
    """The point at infinity of the projective line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


INF = _Infinity()


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(f, p):
    """Rabin test for a monic polynomial f (little-endian list) over F_p."""
    r = len(f) - 1
    if r <= 0:
        return False
    x = [0, 1]
    # x^(p^r) == x mod f
    xq = x
    for _ in range(r):
        xq = _corepy.powmod(xq, p, f, p)
    if _corepy.trim(_corepy.sub(xq, x, p)) != []:
        return False
    for t in _prime_divisors(r):
        xq = x
        for _ in range(r // t):
            xq = _corepy.powmod(xq, p, f, p)
        g = _corepy.gcd_(_corepy.sub(xq, x, p), f, p)
        if g != [1]:
            return False
    return True


@functools.cache
def _canonical_modulus(p, r):
    """Lexicographically least monic irreducible of degree r over F_p.

    Candidates x^r + c_{r-1}x^{r-1} + ... + c_0 are ordered by the
    integer sum(c_k p^k), which is descending-degree lexicographic order
    on the coefficient vector.
    """
    if r == 1:
        return (0, 1)
    for i in range(p**r):
        f = _digits(i, p, r) + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise ArithmeticError(f"no irreducible of degree {r} over F_{p}")


# Fields with at most this many elements run on lookup tables; larger ones
# keep polynomial arithmetic modulo the modulus.
_TABLE_CAP = 1 << 16


class FieldDescriptor:
    """The field F_{p^r} presented as F_p[x]/(modulus).

    Up to _TABLE_CAP elements, the first use of the field builds its
    tables: every element once (``_elems``, indexed by serialization
    key), the antilog table ``_exp`` of a primitive element g and the
    Zech logarithms ``_zech`` (Lidl-Niederreiter, Finite Fields, 10.3).
    An element carries its discrete log to base g, 2(q-1) for zero, and
    ``_exp`` is padded with zero from index 2(q-1) on, so a product is
    the single lookup ``_exp[log a + log b]``.
    """

    __slots__ = (
        "p", "r", "modulus", "order", "_hash",
        "_elems", "_exp", "_zech", "_q1", "_zlog", "_half",
    )

    def __init__(self, p, r, modulus):
        self.p = p
        self.r = r
        self.modulus = tuple(modulus)
        self.order = p**r
        self._hash = hash((p, r, self.modulus))
        self._elems = None

    @staticmethod
    @functools.cache
    def get(p, r):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if r < 1:
            raise ValueError("extension degree must be >= 1")
        return FieldDescriptor(p, r, _canonical_modulus(p, r))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldDescriptor):
            return NotImplemented
        return (self.p, self.r, self.modulus) == (other.p, other.r, other.modulus)

    def __hash__(self):
        return self._hash

    def _tables(self):
        """The elements by key, building the tables first; None above the cap."""
        if self.order > _TABLE_CAP:
            return None
        if self._elems is None:
            _build_tables(self)
        return self._elems

    def element(self, value):
        if isinstance(value, FieldElement):
            if value.descriptor != self:
                raise ValueError("field mismatch; use embed() explicitly")
            return value
        elems = self._elems or self._tables()
        p = self.p
        if isinstance(value, int):
            if elems:
                return elems[value % p]
            coeffs = [value % p]
        else:
            coeffs = [int(v) % p for v in value]
            if len(coeffs) > self.r:
                raise ValueError("coefficient vector too long")
        if elems:
            return elems[sum(c * p**k for k, c in enumerate(coeffs))]
        coeffs += [0] * (self.r - len(coeffs))
        return _PolyElement(self, tuple(coeffs))

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def generator(self):
        """The residue class of x (a root of the modulus) for r > 1."""
        if self.r == 1:
            return self.element(1)
        return self.element([0, 1])

    def elements(self):
        """All elements in serialization order (least first)."""
        elems = self._tables()
        if elems:
            return iter(elems)
        return (self.element(_digits(i, self.p, self.r)) for i in range(self.order))

    def __repr__(self):
        return f"F_{self.p}^{self.r}" if self.r > 1 else f"F_{self.p}"


def _digits(k, p, r):
    """The r base-p digits of k, least significant first."""
    out = []
    for _ in range(r):
        out.append(k % p)
        k //= p
    return out


def _least_primitive(p, r, f, q1):
    """Coefficient list of the least element (by key) generating F_q^x."""
    for k in range(1, q1 + 1):
        c = _corepy.trim(_digits(k, p, r))
        if all(_corepy.powmod(c, q1 // l, f, p) != [1] for l in _prime_divisors(q1)):
            return c
    raise ArithmeticError("modulus is not irreducible")


def _build_tables(d):
    """Fill in the element, antilog and Zech tables of d from g^0, g^1, ..."""
    p, r, q1 = d.p, d.r, d.order - 1
    f = list(d.modulus)
    g = _least_primitive(p, r, f, q1)
    elems = [None] * (q1 + 1)
    powers = []
    c = [1]
    for i in range(q1):
        e = FieldElement(d, tuple(c) + (0,) * (r - len(c)), i)
        elems[e._key] = e
        powers.append(e)
        c = _corepy.divmod_(_corepy.mul(c, g, p), f, p)[1]
    zlog = 2 * q1
    zero = elems[0] = FieldElement(d, (0,) * r, zlog)
    # 1 + g^i differs from g^i in the constant coefficient only
    d._zech = [
        elems[e._key - e.coeffs[0] + (e.coeffs[0] + 1) % p]._log for e in powers
    ]
    d._exp = powers + powers + [zero] * (zlog + 1)
    d._q1 = q1
    d._zlog = zlog
    d._half = 0 if p == 2 else q1 // 2  # log of -1
    d._elems = elems


class FieldElement:
    """An element of F_{p^r}: coefficients in the basis 1, x, ..., x^(r-1).

    Elements of table-backed fields are interned (one object per value)
    and carry their discrete log; arithmetic is table lookups.  Elements
    of fields above _TABLE_CAP are _PolyElement instances.
    """

    __slots__ = ("descriptor", "coeffs", "_key", "_log", "_hash")

    def __init__(self, descriptor, coeffs, log=None):
        p = descriptor.p
        self.descriptor = descriptor
        self.coeffs = coeffs
        self._key = sum(c * p**k for k, c in enumerate(coeffs))
        self._log = log
        self._hash = hash((descriptor, coeffs))

    def _check(self, other):
        if isinstance(other, int):
            return self.descriptor.element(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.descriptor != self.descriptor:
            raise ValueError("field mismatch; use embed() explicitly")
        return other

    def __add__(self, other):
        d = self.descriptor
        if other.__class__ is not FieldElement or other.descriptor is not d:
            other = self._check(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self._log, other._log
        if a == d._zlog:
            return other
        if b == d._zlog:
            return self
        # g^a + g^b = g^(a + zech(b - a)); a negative index wraps mod q - 1
        return d._exp[a + d._zech[b - a]]

    __radd__ = __add__

    def __sub__(self, other):
        d = self.descriptor
        if other.__class__ is not FieldElement or other.descriptor is not d:
            other = self._check(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self._log, other._log
        if b == d._zlog:
            return self
        b += d._half
        if b >= d._q1:
            b -= d._q1
        if a == d._zlog:
            return d._exp[b]
        return d._exp[a + d._zech[b - a]]

    def __rsub__(self, other):
        return self.descriptor.element(other) - self

    def __neg__(self):
        d = self.descriptor
        return d._exp[self._log + d._half]

    def __mul__(self, other):
        d = self.descriptor
        if other.__class__ is not FieldElement or other.descriptor is not d:
            other = self._check(other)
            if other is NotImplemented:
                return NotImplemented
        return d._exp[self._log + other._log]

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.descriptor.element(other) / self

    def __pow__(self, e):
        d = self.descriptor
        if self._log == d._zlog:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return d._exp[0] if e == 0 else self
        return d._exp[self._log * e % d._q1]

    def inverse(self):
        d = self.descriptor
        if self._log == d._zlog:
            raise ZeroDivisionError("inverse of zero")
        return d._exp[d._q1 - self._log]

    def frobenius(self):
        d = self.descriptor
        if self._log == d._zlog:
            return self
        return d._exp[self._log * d.p % d._q1]

    def frobenius_inverse(self):
        """The unique b with b^p = self, i.e. self^(p^(r-1))."""
        d = self.descriptor
        if self._log == d._zlog:
            return self
        return d._exp[self._log * d.p ** (d.r - 1) % d._q1]

    def is_zero(self):
        return self._key == 0

    def __bool__(self):
        return self._key != 0

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self is other or (
                self._key == other._key and self.descriptor == other.descriptor
            )
        if isinstance(other, int):
            return self._key == other % self.descriptor.p
        return NotImplemented

    def __hash__(self):
        return self._hash

    def key(self):
        """Serialization-order key (elements sort by this integer)."""
        return self._key

    def multiplicative_order(self):
        if self.is_zero():
            raise ValueError("zero has no multiplicative order")
        n = self.descriptor.order - 1
        order = n
        for q in _prime_divisors(n):
            while order % q == 0 and (self ** (order // q)) == 1:
                order //= q
        return order

    def embed(self, target):
        """Image in F_{p^R} for r | R, via the least root of the modulus."""
        d = self.descriptor
        if target == d:
            return self
        rho = _embedding_root(d, target)
        acc = target.zero()
        for c in reversed(self.coeffs):
            acc = acc * rho + target.element(c)
        return acc

    def to_json(self):
        d = self.descriptor
        return {
            "p": d.p,
            "r": d.r,
            "modulus": list(d.modulus),
            "coeffs": list(self.coeffs),
        }

    @staticmethod
    def from_json(obj):
        d = FieldDescriptor.get(obj["p"], obj["r"])
        if list(d.modulus) != [c % d.p for c in obj["modulus"]]:
            raise ValueError("non-canonical modulus in serialized element")
        return d.element(obj["coeffs"])

    def __repr__(self):
        if self.descriptor.r == 1:
            return str(self.coeffs[0])
        return f"{self.descriptor}{list(self.coeffs)}"


class _PolyElement(FieldElement):
    """An element of a field above _TABLE_CAP: polynomial arithmetic."""

    __slots__ = ()

    def _binary(self, other, op):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        d = self.descriptor
        return d.element(op(list(self.coeffs), list(other.coeffs), d.p))

    def __add__(self, other):
        return self._binary(other, _corepy.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, _corepy.sub)

    def __neg__(self):
        return self.descriptor.element(_corepy.neg(list(self.coeffs), self.descriptor.p))

    def __mul__(self, other):
        return self._binary(
            other,
            lambda a, b, p: _corepy.divmod_(
                _corepy.mul(a, b, p), list(self.descriptor.modulus), p
            )[1],
        )

    __rmul__ = __mul__

    def __pow__(self, e):
        d = self.descriptor
        if e < 0:
            return self.inverse() ** (-e)
        return d.element(_corepy.powmod(list(self.coeffs), e, list(d.modulus), d.p))

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.descriptor.order - 2)

    def frobenius(self):
        return self ** self.descriptor.p

    def frobenius_inverse(self):
        d = self.descriptor
        return self ** (d.p ** (d.r - 1))


@functools.cache
def _embedding_root(src, dst):
    if src.p != dst.p or dst.r % src.r != 0:
        raise ValueError(f"no embedding {src} -> {dst}")
    mod = [dst.element(c) for c in src.modulus]
    for cand in dst.elements():
        acc = dst.zero()
        for c in reversed(mod):
            acc = acc * cand + c
        if acc.is_zero():
            return cand
    raise ArithmeticError("modulus has no root in the extension")


class Poly:
    """Dense univariate polynomial with FieldElement coefficients."""

    __slots__ = ("descriptor", "coeffs")

    def __init__(self, descriptor, coeffs):
        while coeffs and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        self.descriptor = descriptor
        self.coeffs = tuple(coeffs)

    @staticmethod
    def from_ints(descriptor, ints):
        return Poly(descriptor, [descriptor.element(c) for c in ints])

    @staticmethod
    def x(descriptor):
        return Poly.from_ints(descriptor, [0, 1])

    @staticmethod
    def constant(descriptor, value):
        return Poly(descriptor, [descriptor.element(value)])

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coerce(self, other):
        if isinstance(other, Poly):
            if other.descriptor != self.descriptor:
                raise ValueError("field mismatch")
            return other
        if isinstance(other, (int, FieldElement)):
            return Poly(self.descriptor, [self.descriptor.element(other)])
        return NotImplemented

    def __add__(self, other):
        other = self.coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.descriptor, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.descriptor, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self.coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            c = self.descriptor.element(other)
            return Poly(self.descriptor, [a * c for a in self.coeffs])
        other = self.coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly(self.descriptor, [])
        zero = self.descriptor.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return Poly(self.descriptor, out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.constant(self.descriptor, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def evaluate(self, x):
        x = self.descriptor.element(x)
        acc = self.descriptor.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return Poly(
            self.descriptor,
            [self.descriptor.element(k) * c for k, c in enumerate(self.coeffs)][1:],
        )

    def map_coefficients(self, fn, target=None):
        target = target or self.descriptor
        return Poly(target, [fn(c) for c in self.coeffs])

    def embed(self, target):
        return self.map_coefficients(lambda c: c.embed(target), target)

    def to_json(self):
        if self.descriptor.r == 1:
            return [c.coeffs[0] for c in self.coeffs]
        return [list(c.coeffs) for c in self.coeffs]

    def __eq__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = self.coerce(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.descriptor == other.descriptor and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.descriptor, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                terms.append(f"({c!r})*x^{k}" if k else f"({c!r})")
        return "Poly(" + " + ".join(terms) + ")"


def nth_root_in_field(a, m):
    """The least x (serialization order) with x^m = a in a's field, or None.

    m >= 1.  On a table-backed field x = g^y with m*y = log a mod q - 1:
    solvable iff g = gcd(m, q - 1) divides log a, and then the g roots
    are y0 + k(q - 1)/g.
    """
    if a.is_zero():
        return a
    if a._log is None:
        return _nth_root_by_scan(a, m)
    d = a.descriptor
    g = gcd(m, d._q1)
    if a._log % g:
        return None
    step = d._q1 // g
    y0 = a._log // g * pow(m // g, -1, step) % step
    return min((d._exp[y0 + k * step] for k in range(g)), key=FieldElement.key)


def _nth_root_by_scan(a, m):
    """nth_root_in_field by a scan over the field: the path above the table
    cap, and the oracle the congruence is tested against."""
    if a.is_zero():
        return a
    d = a.descriptor
    q1 = d.order - 1
    # solvable iff a^(q1/g) == 1; the m-th power map has image of index g
    if a ** (q1 // gcd(m, q1)) != d.one():
        return None
    for cand in d.elements():
        if cand**m == a:
            return cand
    return None


def nth_root_with_extension(a, m):
    """An m-th root of a, extending the field minimally if needed.

    Returns (root, descriptor); the root is the least one (serialization
    order) in the smallest extension F_Q, Q = p^{rk}, that contains any:
    the least k with ord(a) | (Q - 1)/gcd(m, Q - 1), found in integers.
    It is at most m, the degree of x^m - a, so there is no error path.
    """
    d = a.descriptor
    order = a.multiplicative_order() if a else 1
    k = 1
    while (d.p ** (d.r * k) - 1) % (order * gcd(m, d.p ** (d.r * k) - 1)):
        k += 1
    target = FieldDescriptor.get(d.p, d.r * k)
    return nth_root_in_field(a.embed(target), m), target
