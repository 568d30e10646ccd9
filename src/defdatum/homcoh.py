"""Finite-dimensional homological kernels over prime fields.

Cochain complexes with exact rank computations, the two-chart Cech
complex of a line bundle on P^1, cochain cohomology of diagonalizable
group schemes (with a tame cyclic group acting), and Picard-category
invariants obtained by explicit enumeration.

Everything here is over F_p with matrices of small exact integers,
ranked by Gaussian elimination mod p on row lists of ints.  Group
cohomology never builds a differential over a whole degree: the cochain
complex splits into blocks keyed by (collapsed word, basis vector),
every block with l letter changes is one small standard complex K_l,
and the H-invariants are counted per orbit of blocks
(``group_cochain_blocks``).

The contracting homotopy s.d + d.s = id of the canonical resolution (an
augmented simplicial object with an extra degeneracy s; Weibel, An
Introduction to Homological Algebra, ch. 8) is checked on one key per
equality pattern of its characters, not on a whole basis
(``verify_resolution_homotopy``): d and s only copy, duplicate and drop
letters, so the verdict on a key does not change under a relabelling of
its characters that fixes the character of its basis vector.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from math import gcd


# ---------------------------------------------------------------------------
# linear algebra mod p


def _width(A):
    """The common length of the rows of A (0 when A has no rows)."""
    width = len(A[0]) if A else 0
    if any(len(row) != width for row in A):
        raise ValueError("rows of unequal length")
    return width


def _support(row, p):
    """{column: entry mod p} over the entries of a row nonzero mod p."""
    return {j: a for j in itertools.compress(range(len(row)), row) if (a := row[j] % p)}


def _row_reduce(M, p):
    """Echelon form of the row list M: {pivot column: pivot row}.

    Each row, as the dict of its nonzero entries, is reduced against the
    pivot rows found so far and becomes the pivot row of its least
    column, scaled to 1 there; so the work follows the nonzero entries.
    """
    pivots = {}
    for row in M:
        v = _support(row, p)
        while v:
            c = min(v)
            if c not in pivots:
                inv = pow(v[c], p - 2, p)
                pivots[c] = {j: x * inv % p for j, x in v.items()}
                break
            f = v[c]
            for j, x in pivots[c].items():
                if y := (v.get(j, 0) - f * x) % p:
                    v[j] = y
                else:
                    del v[j]
    return pivots


def rank_mod_p(A, p):
    _width(A)  # refuses ragged rows
    return len(_row_reduce(A, p))


def solve_mod_p(A, b, p):
    """One solution of A x = b mod p (free variables 0), or None.

    ``b`` has one entry per row of A; with no rows A has no columns.
    """
    cols = _width(A)
    pivots = _row_reduce([[*row, v] for row, v in zip(A, b, strict=True)], p)
    if cols in pivots:
        return None
    x = [0] * cols
    for c in sorted(pivots, reverse=True):
        rest = sum(a * x[j] for j, a in pivots[c].items() if c < j < cols)
        x[c] = (pivots[c].get(cols, 0) - rest) % p
    return x


def _product_is_zero(B, A, p):
    """Whether B A = 0 mod p, summing only over nonzero entries."""
    support = [_support(row, p) for row in A]
    for brow in B:
        acc = {}
        for k, b in _support(brow, p).items():
            for j, a in support[k].items():
                acc[j] = acc.get(j, 0) + b * a
        if any(v % p for v in acc.values()):
            return False
    return True


# ---------------------------------------------------------------------------
# cochain complexes


@dataclass(frozen=True)
class CochainComplex:
    """Matrices d_i: F_p^{dims[i]} -> F_p^{dims[i+1]} with d.d = 0.

    ``start_degree`` labels dims[0]; matrices[i] is a list of dims[i+1]
    rows of dims[i] ints.
    """

    p: int
    dims: tuple
    matrices: tuple
    start_degree: int = 0

    def __post_init__(self):
        if len(self.matrices) != len(self.dims) - 1:
            raise ValueError("need one differential per adjacent pair")
        mats = []
        for i, M in enumerate(self.matrices):
            rows, cols = self.dims[i + 1], self.dims[i]
            if len(M) != rows or any(len(row) != cols for row in M):
                raise ValueError(f"differential {i} is not {rows} x {cols}")
            mats.append([[a % self.p for a in row] for row in M])
        for i in range(len(mats) - 1):
            if not _product_is_zero(mats[i + 1], mats[i], self.p):
                raise ValueError(f"d{i + 1} . d{i} != 0")
        object.__setattr__(self, "matrices", tuple(mats))
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))

    def degree_index(self, degree):
        i = degree - self.start_degree
        if not 0 <= i < len(self.dims):
            raise IndexError(f"degree {degree} outside the complex")
        return i


def cohomology_dims(C):
    """dim H^i for every degree of the complex (rank-nullity over F_p)."""
    ranks = [rank_mod_p(M, C.p) for M in C.matrices]
    out = []
    for i, n in enumerate(C.dims):
        rin = ranks[i - 1] if i > 0 else 0
        rout = ranks[i] if i < len(ranks) else 0
        out.append(n - rout - rin)
    return out


# ---------------------------------------------------------------------------
# Cech cohomology of O(d) on P^1


@functools.cache
def cech_line_bundle(p, d):
    """(h0, h1) of O(d) on P^1 from the explicit two-chart Cech complex.

    Sections over the finite chart are monomials x^0..x^N, sections over
    the chart at infinity are x^{d-N}..x^d, sections on the overlap are
    the Laurent monomials spanning both ranges; the differential is
    (f, g) -> f - g.  N = |d| + 2 is past the point where the answer
    stabilizes.  Memoized per (p, d): the result is an immutable pair,
    and the uncached complex stays reachable as
    ``cech_line_bundle.__wrapped__``.
    """
    N = abs(d) + 2
    chart0 = list(range(0, N + 1))
    chart_inf = list(range(d - N, d + 1))
    lo = min(0, d - N)
    hi = max(N, d)
    overlap = {e: i for i, e in enumerate(range(lo, hi + 1))}
    n0 = len(chart0) + len(chart_inf)
    n1 = len(overlap)
    D = [[0] * n0 for _ in range(n1)]
    for j, e in enumerate(chart0):
        D[overlap[e]][j] = 1
    for j, e in enumerate(chart_inf):
        D[overlap[e]][len(chart0) + j] = (-1) % p
    C = CochainComplex(p, (n0, n1), (D,))
    h0, h1 = cohomology_dims(C)
    return h0, h1


# ---------------------------------------------------------------------------
# graded modules over a diagonalizable group scheme, with tame H


@dataclass(frozen=True)
class GradedHModule:
    """A V-graded module, V = (Z/p)^s, with a cyclic H of order m acting.

    ``dims`` maps a character (tuple of length s) to the dimension of
    its graded piece.  The generator of H sends the character phi to
    T.phi and the basis vector (phi, i) to scalars[(phi, i)] times
    (T.phi, i); so graded pieces along a T-orbit must have equal
    dimension and the m-th iterate of the action must be the identity.
    """

    p: int
    s: int
    m: int
    T: tuple
    dims: dict = field(compare=False)
    scalars: dict = field(compare=False)

    def __post_init__(self):
        if gcd(self.m, self.p) != 1:
            raise ValueError("|H| must be prime to p")
        # T^m = identity on V
        for phi in self.characters():
            psi = phi
            for _ in range(self.m):
                psi = self.apply_T(psi)
            if psi != phi:
                raise ValueError("T^m is not the identity on V")
        for phi, d in self.dims.items():
            if d != self.dims.get(self.apply_T(phi), 0):
                raise ValueError("graded dimensions not constant along H-orbits")
        # generator^m = identity on M
        for b in self.basis():
            c, cur = 1, b
            for _ in range(self.m):
                sc, cur = self.act_generator(cur)
                c = (c * sc) % self.p
            if cur != b or c != 1:
                raise ValueError("the H-action is not of order dividing m")

    def characters(self):
        return itertools.product(range(self.p), repeat=self.s)

    def apply_T(self, phi):
        return tuple(
            sum(self.T[i][j] * phi[j] for j in range(self.s)) % self.p
            for i in range(self.s)
        )

    def basis(self):
        out = []
        for phi in self.characters():
            for i in range(self.dims.get(phi, 0)):
                out.append((phi, i))
        return out

    def act_generator(self, b):
        phi, i = b
        c = self.scalars.get((phi, i), 1) % self.p
        return c, (self.apply_T(phi), i)

    def total_dim(self):
        return sum(self.dims.values())

    def invariant_dim_at_zero(self):
        """dim (M_0)^H, the expected H^0."""
        zero = tuple([0] * self.s)
        n = 0
        for i in range(self.dims.get(zero, 0)):
            start = (zero, i)
            c, cur = 1, start
            while True:
                sc, cur = self.act_generator(cur)
                c = (c * sc) % self.p
                if cur == start:
                    break
            # invariant iff the scalar around the orbit cycle is 1
            if c == 1:
                n += 1
        return n

    @staticmethod
    def trivial_H(p, s, dims):
        T = tuple(tuple(1 if i == j else 0 for j in range(s)) for i in range(s))
        return GradedHModule(p, s, 1, T, dict(dims), {})


def coinduced_module(p, s):
    """O_G as a module over itself: one basis vector per character."""
    dims = {phi: 1 for phi in itertools.product(range(p), repeat=s)}
    return GradedHModule.trivial_H(p, s, dims)


def _cochain_differential(M, n, v):
    """Sparse differential C^n -> C^{n+1} of a sparse vector v (dict).

    The bar word (phi_1..phi_n, b) is the resolution's word (0, phi_1..
    phi_n, b) with the trivial character 0 in front: its
    ``_resolution_differential`` keeps that letter first in every term,
    and dropping it again gives the bar differential.
    """
    trivial = tuple([0] * M.s)
    lifted = {(trivial, *key): c for key, c in v.items()}
    return {key[1:]: c for key, c in _resolution_differential(M, n, lifted).items()}


def _collapsed_words(chars, psi, ell):
    """Words (0, c_1, ..., c_ell = psi) with no two equal neighbours."""
    zero = chars[0]
    if ell == 0:
        if psi == zero:
            yield (zero,)
        return
    for mid in itertools.product(chars, repeat=ell - 1):
        word = (zero, *mid, psi)
        if all(x != y for x, y in zip(word, word[1:])):
            yield word


def _invariant_blocks(M, nmax):
    """{l: [orbit count, representative (word, b)]} for the H-invariant blocks.

    A block is a collapsed word (0, ..., psi) with l <= nmax + 1 letter
    changes and a basis vector b of M of character psi.  The generator
    of H maps the block (w, b) to (T.w, g.b), times the scalar of b; an
    orbit of blocks carries invariants iff the scalar around its cycle
    is 1, and then exactly one copy of its block.  Each orbit is counted
    once, at its least member, so no set of seen blocks is kept.
    """
    chars = list(M.characters())
    T = {phi: M.apply_T(phi) for phi in chars}
    basis = M.basis()
    act = {b: M.act_generator(b) for b in basis}
    found = {}
    for b in basis:
        for ell in range(nmax + 2):
            for word in _collapsed_words(chars, b[0], ell):
                start = cur = (word, b)
                scalar = 1
                while True:
                    sc, gb = act[cur[1]]
                    cur = (tuple(T[phi] for phi in cur[0]), gb)
                    scalar = (scalar * sc) % M.p
                    if cur <= start:
                        break
                if cur == start and scalar == 1:
                    found.setdefault(ell, [0, start])[0] += 1
    return found


def _block_complex(M, word, b, nmax):
    """The block of (word, b) in degrees 0..nmax+1, as a CochainComplex.

    Degree n holds the C(n+1, l) cochains whose word (0, phi_1, ...,
    phi_n, psi) collapses to ``word``: one per way to stretch its l + 1
    runs to length n + 2.  Raises ValueError when the differential
    leaves the block or, through CochainComplex, when d.d != 0.
    """
    ell = len(word) - 1
    bases = []
    for n in range(nmax + 2):
        keys = []
        for cuts in itertools.combinations(range(1, n + 2), ell):
            bounds = (0, *cuts, n + 2)
            runs = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
            stretched = [letter for letter, r in zip(word, runs) for _ in range(r)]
            keys.append((*stretched[1:-1], b))
        bases.append(keys)
    mats = []
    for n in range(nmax + 1):
        index = {k: i for i, k in enumerate(bases[n + 1])}
        D = [[0] * len(bases[n]) for _ in bases[n + 1]]
        for col, key in enumerate(bases[n]):
            for k, c in _cochain_differential(M, n, {key: 1}).items():
                if k not in index:
                    raise ValueError(f"d{n} maps {key} out of the block of {word}")
                D[index[k]][col] = c
        mats.append(D)
    return CochainComplex(M.p, tuple(len(keys) for keys in bases), tuple(mats))


def group_cochain_blocks(M, nmax):
    """The H-invariant cochain complex of G = G_0 x| H: [(multiplicity, K_l)].

    C^n(G_0, M) = O_G^{tensor n} (tensor) M in the character basis, with
    (p^s)^n dim M cochains; the H-invariants functor is applied
    degreewise (exact because |H| is prime to p), which computes the
    cohomology of the semidirect product.  Every term of d(phi_1 ...
    phi_n, b) duplicates one letter of the word (0, phi_1, ..., phi_n,
    psi), so the collapsed word and b are invariant under d and the
    complex splits into blocks.  A block's
    differential depends only on the run lengths of its words, so all
    blocks with l letter changes are one complex K_l, built once here
    from a representative block; the H-invariant complex is the sum of
    one K_l per invariant orbit of blocks (``_invariant_blocks``).  The
    sum is that complex in degrees 0..nmax; the blocks with l = nmax + 2,
    which start in degree nmax + 1 and meet no differential there, are
    left out.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    return [
        (count, _block_complex(M, word, b, nmax))
        for _, (count, (word, b)) in sorted(_invariant_blocks(M, nmax).items())
    ]


def group_cohomology(M, nmax):
    """dim H^n(G, M) for n = 0..nmax, summed over ``group_cochain_blocks``."""
    dims = [0] * (nmax + 1)
    for count, K in group_cochain_blocks(M, nmax):
        for n, h in enumerate(cohomology_dims(K)[: nmax + 1]):
            dims[n] += count * h
    return dims


def _resolution_differential(M, n, v):
    """Differential of the canonical resolution B^n = O_G^{tensor n+1} (x) M."""
    out = {}
    p = M.p
    for key, coeff in v.items():
        *phis, b = key  # n+1 characters here
        psi = b[0]
        terms = []
        for nu in range(n + 1):
            dup = (*phis[:nu], phis[nu], phis[nu], *phis[nu + 1 :], b)
            terms.append((dup, (-1) ** nu))
        terms.append(((*phis, psi, b), (-1) ** (n + 1)))
        for key2, sign in terms:
            out[key2] = (out.get(key2, 0) + sign * coeff) % p
    return {k: c for k, c in out.items() if c}


def _resolution_homotopy(M, v):
    """s(a0 (x) ... (x) an (x) m) = e(a0) a1 (x) ... (x) an (x) m."""
    out = {}
    p = M.p
    for key, coeff in v.items():
        *phis, b = key
        key2 = (*phis[1:], b)  # counit of any character is 1
        out[key2] = (out.get(key2, 0) + coeff) % p
    return {k: c for k, c in out.items() if c}


def _homotopy_holds(M, n, key):
    """Whether s.d + d.s sends the basis key of B^n to itself."""
    v = {key: 1}
    if n == 0:
        # d s(v) on B^0 goes through the augmentation M -> B^0
        ds = {}
        for (b,), c in _resolution_homotopy(M, v).items():
            ds[(b[0], b)] = (ds.get((b[0], b), 0) + c) % M.p
    else:
        ds = _resolution_differential(M, n - 1, _resolution_homotopy(M, v))
    total = dict(ds)
    for k, c in _resolution_homotopy(M, _resolution_differential(M, n, v)).items():
        total[k] = (total.get(k, 0) + c) % M.p
    return {k: c for k, c in total.items() if c} == v


def _equality_patterns(length, most):
    """Restricted-growth strings: a[0] = 0, a[k] <= max(a[:k]) + 1.

    Each is the equality pattern of a word of ``length`` letters, its
    blocks numbered in order of first appearance; at most ``most`` blocks.
    """
    if length == 0:
        yield ()
        return
    for head in _equality_patterns(length - 1, most):
        for a in range(min(max(head, default=-1) + 2, most)):
            yield (*head, a)


def _pattern_keys(M, n):
    """One key (phi_0, ..., phi_n, b) of B^n per equality pattern of
    (phi_0, ..., phi_n, psi), for every basis vector b of character psi.

    The block of psi is labelled psi, the other blocks take the other
    characters in order.
    """
    chars = list(M.characters())
    for b in M.basis():
        psi = b[0]
        others = [c for c in chars if c != psi]
        for pattern in _equality_patterns(n + 2, len(chars)):
            last = pattern[-1]
            label = [psi if a == last else others[a - (a > last)] for a in pattern[:-1]]
            yield (*label, b)


def verify_resolution_homotopy(M, nmax):
    """Check s.d + d.s = id on the canonical resolution in degrees <= nmax.

    B^n has (p^s)^(n+1) dim M basis keys, 390625 at p = 5, s = 2, n = 2;
    one key per equality pattern is enough.  The differential and the
    homotopy only copy, duplicate and drop the letters phi_0..phi_n, and
    read b only through psi = b[0], which they may insert as a letter;
    so they commute with every injective relabelling of characters that
    fixes psi, and the verdict on a key depends only on b and on the
    equality pattern of (phi_0, ..., phi_n, psi).  Per b and n there are
    at most Bell(n + 2) patterns (15 at n = 2).
    """
    return all(
        _homotopy_holds(M, n, key) for n in range(nmax + 1) for key in _pattern_keys(M, n)
    )


# ---------------------------------------------------------------------------
# Picard-category invariants by enumeration


@dataclass(frozen=True)
class PicInvariants:
    """pi_0 and Aut(neutral) as invariant-factor tuples."""

    pi0: tuple
    aut: tuple


class EnumerationBudgetExceeded(Exception):
    pass


def _enumerate_vectors(p, n):
    return itertools.product(range(p), repeat=n)


def _apply(Mat, v, p):
    return tuple(sum(a * x for a, x in zip(row, v, strict=True)) % p for row in Mat)


def _quotient_group(cocycles, boundaries, p):
    """Maps each cocycle z to the canonical representative of its class
    mod the boundary set: the least of the translates z + b."""
    bset = sorted(boundaries)
    reps = {}
    for z in cocycles:
        cls = min(tuple((zi + bi) % p for zi, bi in zip(z, b)) for b in bset)
        reps[z] = cls
    return reps


def pic_invariants(A, budget=3**6):
    """Invariants of the Picard groupoid of a complex in degrees -1..2.

    Objects are the 1-cocycles, morphisms x -> y are elements f of the
    degree-0 piece with d(f) = y - x taken modulo the image of the
    degree -1 piece, and composition is addition.  Both invariants are
    computed by explicit enumeration and returned as invariant-factor
    tuples of elementary abelian p-groups.
    """
    p = A.p
    i1 = A.degree_index(1)
    n_m1, n0, n1 = A.dims[i1 - 2], A.dims[i1 - 1], A.dims[i1]
    if max(p**n_m1, p**n0, p**n1) > budget:
        raise EnumerationBudgetExceeded("graded pieces too large to enumerate")
    d_m1, d0, d1 = A.matrices[i1 - 2], A.matrices[i1 - 1], A.matrices[i1]

    zero_top = tuple([0] * len(d1))
    cocycles = [v for v in _enumerate_vectors(p, n1) if _apply(d1, v, p) == zero_top]
    boundaries1 = {_apply(d0, f, p) for f in _enumerate_vectors(p, n0)}
    reps = _quotient_group(cocycles, boundaries1, p)
    classes = sorted(set(reps.values()))
    # Baer sum: class of the vector sum; check the group laws explicitly
    zero_class = reps[tuple([0] * n1)]
    for c in classes:
        acc = c
        order = 1
        while acc != zero_class:
            acc = reps[tuple((a + b) % p for a, b in zip(acc, c))]
            order += 1
            if order > p:
                raise ArithmeticError("class order exceeds p in an F_p-linear category")
    k1 = _integer_log(len(classes), p)
    # automorphisms of the neutral object: ker d0 modulo im d_{-1}
    zero0 = tuple([0] * len(d0))
    autocycles = [f for f in _enumerate_vectors(p, n0) if _apply(d0, f, p) == zero0]
    boundaries0 = {_apply(d_m1, e, p) for e in _enumerate_vectors(p, n_m1)}
    reps0 = _quotient_group(autocycles, boundaries0, p)
    k0 = _integer_log(len(set(reps0.values())), p)
    return PicInvariants(pi0=(p,) * k1, aut=(p,) * k0)


def _integer_log(n, p):
    k = 0
    while n > 1:
        if n % p:
            raise ArithmeticError(f"{n} is not a power of {p}")
        n //= p
        k += 1
    return k
