"""Numerical signatures of multiplicative deformation data.

A signature fixes the prime p, the order m of the tame cyclic group
(with p invertible mod m), and for every critical point an integer part
nu in {0,1} plus a residue b0 in [0,m).  Everything else is derived:
the Frobenius orbit b^(i) = p^i b0 mod m, the local index
m_j = m/gcd(m,b0), the rational slopes sigma^(i) = nu + b^(i)/m and the
local residues a^(i) = m_j * frac(sigma^(i)).

Exactly three points (the base triple) carry nu = 0; every other point
is "new" and carries nu = 1 with b0 != 0.  Wild points (all b^(i) = 0)
can only sit in the base triple.

Since base points carry nu = 0 and new points nu = 1, the level-0
identity sum_j (sigma_j^(0) - 1) = -2 says exactly that the residues
b0 of all points sum to m.  Enumeration builds its candidates from that
identity (a base multiset from [0, m) and a new multiset from [1, m)
with total m) instead of scanning every residue tuple.

Past level 0, such a candidate is admissible exactly when it is pure:
sum_j b_j^(i) = m at every level i.  Every other identity holds by
construction (orbits are computed, not stored; sigma = 1 would need
b^(i) = 0 at a new point, and p is invertible mod m).  Enumeration
decides purity on integers before it builds any `Signature`: residue
b gets one packed int P(b) whose slot i, counted from the high end,
holds b^(i) = p^i b mod m, and the candidate is pure iff
sum_j P(b_j) is m in every slot.
- The slot width is w = (n m).bit_length() for n points: a slot of
  the sum holds at most n (m - 1) < n m < 2^w, so no slot carries
  into the next and each slot of the sum is that level's sum.
- Slot 0 is the high slot, so P(a) < P(b) exactly when
  orbit(a) < orbit(b) as tuples: comparing packed ints is comparing
  the canonical keys of `canonicalize`.
- No deduplication is needed: the construction yields each pair of
  multisets once, and the canonical order of a signature's points
  determines its two multisets, so distinct candidates give distinct
  signatures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd

from . import homcoh


def multiplicative_order(p, m):
    if m < 1:  # p % m is never 1 for m < 0: the loop below would not end
        raise ValueError("m must be a positive integer")
    if m == 1:
        return 1
    if gcd(p, m) != 1:
        raise ValueError("p must be invertible mod m")
    s, acc = 1, p % m
    while acc != 1:
        acc = (acc * p) % m
        s += 1
    return s


@dataclass(frozen=True)
class SigPoint:
    role: str  # "B0" or "new"
    nu: int
    b0: int


@dataclass(frozen=True)
class Signature:
    """s, the orbits and ``validation`` are computed once, on first use, so
    a signature with p not invertible mod m can still be built and validated.
    """

    p: int
    m: int
    points: tuple

    @cached_property
    def s(self):
        return multiplicative_order(self.p, self.m)

    @cached_property
    def orbits(self):
        """orbits[j] = (b_j^(0), ..., b_j^(s-1)) with b^(i+1) = p b^(i) mod m."""
        p, m, s = self.p, self.m, self.s
        out = []
        for pt in self.points:
            b, orbit = pt.b0 % m, []
            for _ in range(s):
                orbit.append(b)
                b = (b * p) % m
            out.append(tuple(orbit))
        return tuple(out)

    @cached_property
    def validation(self):
        """The ``validate_signature`` report, computed once per signature."""
        return validate_signature(self)

    @property
    def n_points(self):
        return len(self.points)

    def orbit(self, j):
        return self.orbits[j]

    def m_j(self, j):
        return self.m // gcd(self.m, self.points[j].b0 % self.m)

    def sigma(self, j, i):
        return Fraction(self.orbits[j][i % self.s], self.m) + self.points[j].nu

    def a(self, j, i):
        """m_j frac(sigma^(i)) = b^(i) m_j / m, an integer."""
        val, rem = divmod(self.m_j(j) * self.orbits[j][i % self.s], self.m)
        assert rem == 0
        return val

    def a_min(self, j):
        return min(self.a(j, i) for i in range(self.s))

    def b0_indices(self):
        return tuple(j for j, pt in enumerate(self.points) if pt.role == "B0")

    def new_indices(self):
        return tuple(j for j, pt in enumerate(self.points) if pt.role == "new")

    def to_json(self):
        return {
            "p": self.p,
            "m": self.m,
            "s": self.s,
            "points": [
                {"nu": pt.nu, "b0": pt.b0, "role": pt.role} for pt in self.points
            ],
        }

    @staticmethod
    def from_json(obj):
        sig = Signature(
            obj["p"],
            obj["m"],
            tuple(SigPoint(pt["role"], pt["nu"], pt["b0"]) for pt in obj["points"]),
        )
        if "s" in obj and obj["s"] != sig.s:
            raise ValueError("serialized s does not match ord_m(p)")
        return sig


@dataclass(frozen=True)
class ValidationReport:
    failures: tuple

    @property
    def passed(self):
        return not self.failures

    def __bool__(self):
        return self.passed


def _structural_failures(sig):
    """Failures of the ranges, roles and the nu = 0 / nu = 1 split."""
    fails = []
    for j, pt in enumerate(sig.points):
        if pt.nu not in (0, 1):
            fails.append(f"point {j}: nu outside {{0,1}}")
        if not 0 <= pt.b0 < sig.m:
            fails.append(f"point {j}: b0 outside [0, m)")
        if pt.role not in ("B0", "new"):
            fails.append(f"point {j}: unknown role {pt.role!r}")
    b0 = sig.b0_indices()
    if len(b0) != 3:
        fails.append(f"base triple has {len(b0)} points, expected 3")
    for j in b0:
        if sig.points[j].nu != 0:
            fails.append(f"point {j}: base-triple point with nu != 0")
    for j in sig.new_indices():
        if sig.points[j].nu != 1:
            fails.append(f"point {j}: new point with nu != 1")
        if sig.points[j].b0 % sig.m == 0:
            fails.append(f"point {j}: new point with b0 = 0 (wild outside the base triple)")
    return fails


def validate_signature(sig):
    """All admissibility identities, with a detailed failure list.

    Each identity on the slopes sigma^(i) = nu + b^(i)/m is checked
    multiplied by m, as an identity of integers; a Fraction is built
    only to word a failure.
    """
    if gcd(sig.p, sig.m) != 1:
        return ValidationReport(("p not invertible mod m",))
    if sig.m < 1:  # ord_m(p), and so sig.s, is undefined
        return ValidationReport(("m must be a positive integer",))
    fails = _structural_failures(sig)
    p, m, s, orbits = sig.p, sig.m, sig.s, sig.orbits
    # m * sum_j (sigma_j^(i) - 1) = sum_j b_j^(i) + m (sum_j nu_j - n)
    shift = m * (sum(pt.nu for pt in sig.points) - sig.n_points)
    for i in range(s):
        total = sum(orbit[i] for orbit in orbits) + shift
        if total != -2 * m:
            fails.append(
                f"level {i}: sum of (sigma - 1) is {Fraction(total, m)}, expected -2"
            )
    powers = [pow(p, i, m) for i in range(s)]
    for j, (pt, orbit) in enumerate(zip(sig.points, orbits)):
        for i in range(s):
            # frac(sigma^(i)) = frac(p^i sigma^(0))
            if orbit[i] != powers[i] * orbit[0] % m:
                fails.append(f"point {j}, level {i}: fractional orbit identity broken")
            if pt.nu * m + orbit[i] == m:
                fails.append(f"point {j}, level {i}: sigma = 1 is forbidden")
    return ValidationReport(tuple(fails))


def is_pure(sig):
    """Sum of b^(i) over all points equals m at every level."""
    return all(
        sum(orbit[i] for orbit in sig.orbits) == sig.m for i in range(sig.s)
    )


@dataclass(frozen=True)
class SpecialReport:
    special: bool
    base_triple: tuple
    pure: bool
    nu_constant: bool

    def __bool__(self):
        return self.special


def is_special(sig):
    """Specialty check; the report also confirms the forced consequences.

    Special means sigma != 1 everywhere with nu = 0 exactly on a
    three-point base triple and nu = 1 elsewhere.  For such signatures
    purity and level-independence of the integer parts must follow; both
    are recomputed and reported rather than assumed.
    """
    b0 = sig.b0_indices()
    special = sig.validation.passed and len(b0) == 3
    pure = is_pure(sig) if special else False
    # int(sigma) truncates toward zero: int(nu + b/m) = nu unless nu < 0 < b
    nu_constant = all(
        pt.nu >= 0 or not any(orbit) for pt, orbit in zip(sig.points, sig.orbits)
    )
    return SpecialReport(special and pure and nu_constant, b0, pure, nu_constant)


def _canonical_key(orbit):
    # descending sort: wild slots (orbit all zero) come last, so the
    # pinned coordinates 0, 1, infinity put wild points at infinity
    return tuple(-b for b in orbit)


def canonicalize(sig):
    """Base-triple slots sorted by orbit (descending), then new points.

    A signature already in that order is returned itself, so its cached
    orbits and validation are kept: ``search.search_field`` canonicalizes
    once, and each ``build_cover`` of its candidates reuses that signature.
    """
    order = sorted(sig.b0_indices(), key=lambda j: _canonical_key(sig.orbits[j]))
    order += sorted(sig.new_indices(), key=lambda j: _canonical_key(sig.orbits[j]))
    if order == list(range(len(sig.points))):
        return sig
    return Signature(sig.p, sig.m, tuple(sig.points[j] for j in order))


def _check_enumeration_args(p, m, n_points):
    if m < 1:
        raise ValueError("m must be a positive integer")
    if gcd(p, m) != 1:
        raise ValueError("p must be invertible mod m")
    if n_points < 3:
        raise ValueError("need at least the base triple")


def _multisets(lo, hi, k, total):
    """Non-decreasing k-tuples with entries in [lo, hi) summing to total."""
    if k == 0:
        if total == 0:
            yield ()
        return
    for first in range(lo, min(hi, total // k + 1)):
        for rest in _multisets(first, hi, k - 1, total - first):
            yield (first,) + rest


def _packed_orbits(p, m, n_points):
    """(P, target): P[b] packs the orbit of b, slot 0 high; target is m in every slot.

    Slots are (n_points m).bit_length() bits wide, so a sum of
    n_points packed orbits carries into no slot (module docstring).
    """
    s, w = multiplicative_order(p, m), (n_points * m).bit_length()
    packed = []
    for b in range(m):
        acc = 0
        for _ in range(s):
            acc = (acc << w) | b
            b = b * p % m
        packed.append(acc)
    target = 0
    for _ in range(s):
        target = (target << w) | m
    return packed, target


def enumerate_signatures(p, m, n_points):
    """All special-admissible signatures, canonically ordered.

    Candidates are built by construction from the level-0 identity
    sum b0 = m (see the module docstring): the new residues run over the
    multisets from [1, m) of size n_points - 3, the base triple over the
    multisets from [0, m) of size 3, with total m.  Every admissible
    signature satisfies that identity and canonicalization only reorders
    points within their role, so none is missed.

    Past level 0 a candidate is admissible iff it is pure at every
    level, decided as one comparison of packed orbit sums: the base
    triples are indexed by their packed sum, and a new multiset with
    packed sum N meets exactly the triples whose sum is target - N.
    Only these survivors become a `Signature`, with the points of each
    role in descending packed order, which is the order `canonicalize`
    gives, and the signatures sorted by the tuple of their points'
    negated packed orbits, which is the tuple of canonical keys.  The
    candidates are distinct multisets, so the signatures are distinct.
    Every survivor still goes through `validate_signature`; a failure
    there is a fault of the packed test and raises.
    """
    _check_enumeration_args(p, m, n_points)
    packed, target = _packed_orbits(p, m, n_points)
    bases = {}
    for t in range(m + 1):
        for base in _multisets(0, m, 3, t):
            bases.setdefault(sum(packed[b] for b in base), []).append(base)
    keyed = []
    for t in range(m + 1):
        for new in _multisets(1, m, n_points - 3, t):
            rest = target - sum(packed[b] for b in new)
            for base in bases.get(rest, ()):
                residues = sorted(base, key=packed.__getitem__, reverse=True)
                residues += sorted(new, key=packed.__getitem__, reverse=True)
                keyed.append((tuple(-packed[b] for b in residues), residues))
    keyed.sort()
    out = []
    for _, residues in keyed:
        sig = Signature(p, m, tuple(
            SigPoint("B0", 0, b) if j < 3 else SigPoint("new", 1, b)
            for j, b in enumerate(residues)
        ))
        if not sig.validation.passed:
            raise ArithmeticError(
                f"packed purity test admitted {residues}: {sig.validation.failures}"
            )
        out.append(sig)
    return out


def derived_invariants(sig):
    """Genus, isotypic degrees and cohomology, and tangent accounting.

    The genus of the cover Z comes from Riemann-Hurwitz over the local
    indices m_j; the isotypic degree at level i is minus the sum of the
    fractional parts of sigma^(i); the (h0, h1) pairs come from the
    two-chart Cech complex through `homcoh.cech_line_bundle`, which is
    memoized per (p, d): a table of signatures asks for a handful of
    degrees many times, and each is ranked once per process.
    """
    m = sig.m
    ram = sum((m // sig.m_j(j)) * (sig.m_j(j) - 1) for j in range(sig.n_points))
    two_g = -2 * m + ram + 2
    if two_g % 2:
        raise ArithmeticError("Riemann-Hurwitz parity failure")
    degrees = []
    for i in range(sig.s):
        total = sum(orbit[i] for orbit in sig.orbits)
        if total % m:
            raise ArithmeticError(f"level {i}: residues do not sum to 0 mod m")
        degrees.append(-(total // m))
    cohomology = [homcoh.cech_line_bundle(sig.p, d) for d in degrees]
    return {
        "genus": two_g // 2,
        "isotypic_degrees": degrees,
        "isotypic_cohomology": cohomology,
        "tangent_dimension": sig.n_points - 3,
        "torsion_multiplicities": {j: 1 for j in sig.new_indices()},
    }
