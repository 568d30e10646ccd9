"""Answers worked out apart from defdatum, used to check its outputs.

Nothing here imports the package.  Field elements arrive in their JSON
form ({"p", "r", "modulus", "coeffs"}) and are computed on with the
plain-integer arithmetic below.
"""

from __future__ import annotations

import itertools
from math import comb, gcd


class GF:
    """F_p[x]/(modulus) with elements as coefficient tuples, lowest first."""

    def __init__(self, p, modulus):
        self.p = p
        self.modulus = tuple(c % p for c in modulus)
        self.r = len(self.modulus) - 1
        if self.modulus[-1] != 1:
            raise ValueError("modulus must be monic")

    @staticmethod
    def of(obj):
        return GF(obj["p"], obj["modulus"])

    @property
    def order(self):
        return self.p**self.r

    def const(self, c):
        return (c % self.p,) + (0,) * (self.r - 1)

    def elements(self):
        return [
            tuple((i // self.p**k) % self.p for k in range(self.r))
            for i in range(self.order)
        ]

    def mul(self, a, b):
        p, r = self.p, self.r
        prod = [0] * (2 * r - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for k in range(len(prod) - 1, r - 1, -1):
            c = prod[k] % p
            if c:
                for j in range(r + 1):
                    prod[k - r + j] -= c * self.modulus[j]
        return tuple(c % p for c in prod[:r])

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def pow(self, a, e):
        out, base = self.const(1), a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def frobenius(self, a):
        return self.pow(a, self.p)

    def frobenius_inverse(self, a):
        return self.pow(a, self.p ** (self.r - 1))


def key(coeffs, p):
    """Serialization-order key of a coefficient tuple."""
    return sum(c * p**k for k, c in enumerate(coeffs))


# ---------------------------------------------------------------------------
# m = 2, one new point: z^2 = x (x - tau), residues (1, 0, 0 | 1)


def m2_condition_coeffs(p):
    """Integer coefficients of c(tau), the x^(p-1) coefficient of
    N = x^((p-1)/2) (x - tau)^((p+1)/2) (x - 1)^(p-1).

    For the cover z^2 = x (x - tau) and omega = z dx / (x (x - 1)),
    z dx / Q = z^p (x (x - tau))^(-(p-1)/2) dx / Q, and over the common
    denominator g^p, g = x (x - tau)(x - 1), the Cartier operator gives
    C(omega) = z C(N dx) / g dx with C(N dx) = c(tau)^(1/p) + x (N is
    monic of degree 2p - 1).  So C(omega) = lambda omega holds iff
    lambda = 1 and c(tau) = -tau^p.  Terms of N of degree p - 1 pair
    (x - tau)^((p+1)/2) at tau^j with (x - 1)^(p-1) at x^(j-1).
    """
    h = (p + 1) // 2
    out = [0] * (h + 1)
    for j in range(1, h + 1):
        i = p - j  # the power of -1 taken from (x - 1)^(p-1)
        out[j] = comb(h, j) * (-1) ** j * comb(p - 1, i) * (-1) ** i % p
    return out


def m2_special_taus(field):
    """All tau in the field, outside {0, 1}, carrying the m = 2 datum."""
    p = field.p
    coeffs = m2_condition_coeffs(p)
    zero, one = field.const(0), field.const(1)
    out = []
    for tau in field.elements():
        if tau in (zero, one):
            continue
        value = field.frobenius(tau)
        power = one
        for c in coeffs:
            if c:
                value = field.add(value, field.mul(field.const(c), power))
            power = field.mul(power, tau)
        if value == zero:
            out.append(tau)
    return out


# ---------------------------------------------------------------------------
# signatures with plain integers


def multiplicative_order(p, m):
    if m == 1:
        return 1
    s, acc = 1, p % m
    while acc != 1:
        acc = acc * p % m
        s += 1
    return s


def orbit(p, m, b0):
    s = multiplicative_order(p, m)
    return tuple(p**i * b0 % m for i in range(s))


def count_signatures(p, m, n_points):
    """Residue-tuple scan: base multisets from [0, m), new from [1, m),
    with the residues of every Frobenius level summing to m."""
    if gcd(p, m) != 1:
        return 0
    s = multiplicative_order(p, m)
    count = 0
    for base in itertools.combinations_with_replacement(range(m), 3):
        for new in itertools.combinations_with_replacement(range(1, m), n_points - 3):
            pts = base + new
            if all(sum(p**i * b % m for b in pts) == m for i in range(s)):
                count += 1
    return count


def scan_size(m, n_points):
    """Residue tuples `count_signatures` visits."""
    return comb(m + 2, 3) * comb(m + n_points - 5, n_points - 3)


def riemann_roch(d):
    """(h0, h1) of O(d) on P^1."""
    return (max(d + 1, 0), max(-d - 1, 0))
