"""Test oracles: the direct, slow forms of paths the package computes by
structure.

No command runs anything here.  Each oracle is compared with the
package's path in the unit suites:

- ``group_cochain_complex`` (one sparse differential over the invariants
  of a whole degree, ranked by ``sparse_rank``) with
  ``homcoh.group_cochain_blocks``;
- ``verify_resolution_homotopy_per_key`` (every basis key) with
  ``homcoh.verify_resolution_homotopy`` (one key per equality pattern);
- ``enumerate_signatures_bruteforce`` (every residue tuple) and
  ``enumerate_signatures_by_validation`` (the construction from
  sum b0 = m by the recursive ``_multisets``, every candidate
  canonicalized and validated) with ``sigdata.enumerate_signatures``
  (the same construction by ``combinations_with_replacement``,
  filtered by packed orbit sums);
- ``orbits_by_recursion`` (every point's orbit, level by level) with
  ``Signature.orbits`` and ``Signature.level_sums`` (one memoized
  ``sigdata.orbit_row`` per residue);
- ``validate_signature_by_fractions`` (the slope identities in
  Fractions) with ``sigdata.validate_signature`` (the same identities
  times m, in integers, read off the level sums and the rows);
- ``cartier_rational`` (C(N g^(p-1))/g on a ``RationalFunction``, kept
  coprime by ``poly_gcd``, g^(p-1) as g^p // g by ``poly_divmod``) with
  ``cartier.cartier_fraction`` (the p-th-power split of known
  branch-point exponents), and ``is_cartier_fixed_by_rationals`` (every
  level through ``cartier_rational``) with ``cartier.is_cartier_fixed``;
- ``cartier_rational_by_powering`` (g^(p-1) by repeated squaring) with
  ``cartier_rational`` (g^p // g);
- ``cartier_of_linear_powers`` (H C(R), the p-th-power split with H
  multiplied in) with the Cartier image of the product multiplied out;
- ``level_constant_by_full_product`` (the identity C(u) Q = kappa g,
  with C(u) = H C(R) and g formed) with ``cartier.level_constant`` (C(R)
  = kappa S for the squarefree cofactor S = g/(Q H), on build_cover's
  covers);
- ``check_candidate_by_rationals`` (normalized rational functions) with
  ``search.check_candidate`` (one ``cartier.level_constant`` per level);
- ``omega_orders_by_ord_at_critical`` (each eigenform ``omega_form``,
  its orders read by ``ord_at_critical``, which expands up to the
  Riemann-Hurwitz bound ``_order_bound`` where the terms' orders tie)
  with ``search.omega_orders`` (the orders of 1/Q in closed form);
- ``phi_basis`` (the F_p-rational forms phi_l as combinations) with
  ``cartier.phi_coefficients`` and ``search.verify_datum``'s test of the
  rows by Cartier constants;
- ``search_field_by_full_scan`` (the candidate check on every tuple)
  with ``search.search_field`` (one check per Frobenius orbit, the
  images' lambda by Frobenius);
- ``lift_datum_by_rationals`` (every Cartier image a normalized rational
  function, brought to a common denominator by gcds) with
  ``deform.lift_datum`` (one fixed denominator per level, its cofactor
  split as H^p R and H dropped);
- ``epsilon_form_by_rationals`` (the derived form over normalized
  rational functions) with ``cartier.epsilon_form`` (fractions over the
  branch points);
- ``expand_combination`` and ``expand_levels`` (truncated
  ``LaurentSeries`` of a form at a critical point, from one frame: x,
  the factor series, z_0 by Newton's m-th root, the Frobenius recursion
  and series inverses) with ``cartier.ord_single_form`` (each level's
  order in closed form) and ``deform._leading_coefficients`` (omega's
  coefficients at M from the branch root and the step exponents);
- ``is_j_special_by_expansions`` (one ``expand_combination`` per c in
  F_{p^s}^x, of omega and of the epsilon-part scaled by the c^{p^i})
  and ``specialty_series`` (one frame of level series per lift and
  point, every c read off them by linearity) with
  ``deform.is_j_special`` (closed-form orders and leading
  coefficients, no series);
- ``rigidity_check_by_directions`` (one lift, round trip and specialty
  test by ``is_j_special_by_expansions`` per direction c e_k, c in
  F_q^x) with ``deform.rigidity_check`` (one lift per unit vector e_k,
  the line F_q^x e_k by linearity, omega's part of specialty once per
  point), on the ``LIFT_CONFIGS`` data with q <= 25, the two-new-point
  (7, 2, 5, 1) data and the non-rigid (7, 4, 4, 1) data;
- ``series_at`` (the Laurent expansion of a rational function) with
  ``expand_combination`` on the trivial cover, and with the
  closed-form residues of ``deform.kodaira_spencer``.
"""

import functools
import itertools
import operator
from math import gcd

from defdatum import cartier, deform, homcoh, search, sigdata
from defdatum.algebra import INF, FieldDescriptor, FieldElement, Poly
from defdatum.cartier import BranchFraction, FormCombination


def cochain_basis(M, n):
    """Basis of C^n(G, M) = O_G^{tensor n} (tensor) M in the character basis.

    A generator: C^n has (p^s)^n dim M keys, 390625 at p = 5, s = 2, n = 3.
    """
    basis = M.basis()
    for phis in itertools.product(M.characters(), repeat=n):
        for b in basis:
            yield (*phis, b)


def invariant_basis(M, basis):
    """Orbit-sum basis of the H-invariants of a monomial H-action.

    Returns a list of (sparse vector, key) pairs: the vector (dict
    basis-key -> coeff) normalized to coefficient 1 at its smallest key.
    """
    index = {b: i for i, b in enumerate(basis)}
    seen = set()
    out = []
    p = M.p
    for b in basis:
        if b in seen:
            continue
        orbit = []
        cur, c = b, 1
        while True:
            orbit.append((cur, c))
            seen.add(cur)
            *phis, mb = cur
            sc, mb2 = M.act_generator(mb)
            cur = (*[M.apply_T(phi) for phi in phis], mb2)
            c = (c * sc) % p
            if cur == b:
                break
        if c == 1:  # the cycle scalar; otherwise no invariant on this orbit
            vec = dict(orbit)
            # normalize at the smallest key for stable coordinates
            k0 = min(vec, key=lambda k: index[k])
            inv = pow(vec[k0], p - 2, p)
            out.append(({k: (co * inv) % p for k, co in vec.items()}, k0))
    return out


def sparse_rank(vectors, p):
    """F_p-rank of sparse vectors (dicts index -> coefficient), by elimination.

    Each vector is reduced by the stored pivot vectors at its least index
    until it is zero or has a new pivot there.
    """
    pivots = {}
    for vec in vectors:
        vec = {i: c % p for i, c in vec.items() if c % p}
        while vec:
            i = min(vec)
            pivot = pivots.get(i)
            if pivot is None:
                inv = pow(vec[i], p - 2, p)
                pivots[i] = {j: c * inv % p for j, c in vec.items()}
                break
            c = vec[i]
            for j, a in pivot.items():
                v = (vec.get(j, 0) - c * a) % p
                if v:
                    vec[j] = v
                else:
                    vec.pop(j, None)
    return len(pivots)


class SparseCochainComplex:
    """Differentials as sparse columns: ``columns[n][i]`` is the image of
    the i-th basis vector of degree n, a dict row -> coefficient mod p.

    d.d = 0 is checked on construction, column by column.
    """

    def __init__(self, p, dims, columns):
        for n in range(len(columns) - 1):
            for col in columns[n]:
                image = {}
                for j, c in col.items():
                    for k, a in columns[n + 1][j].items():
                        image[k] = (image.get(k, 0) + c * a) % p
                if any(image.values()):
                    raise ValueError(f"d{n + 1} . d{n} != 0")
        self.p = p
        self.dims = tuple(dims)
        self.columns = tuple(columns)

    def cohomology_dims(self):
        """dim H^n = dims[n] - rank d_n - rank d_{n-1} in every degree."""
        ranks = [sparse_rank(cols, self.p) for cols in self.columns] + [0]
        return [n - ranks[i] - (ranks[i - 1] if i else 0) for i, n in enumerate(self.dims)]


def group_cochain_complex(M, nmax):
    """The H-invariant cochain complex of G = G_0 x| H in degrees 0..nmax+1.

    Every degree's (p^s)^n dim M cochains are listed and each
    differential is one sparse matrix over the invariants of a whole
    degree, ranked by ``sparse_rank``.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    invariants = [invariant_basis(M, list(cochain_basis(M, n))) for n in range(nmax + 2)]
    columns = []
    for n in range(nmax + 1):
        rep_index = {k0: j for j, (_, k0) in enumerate(invariants[n + 1])}
        cols = []
        for vec, _ in invariants[n]:
            col = {}
            for k, c in homcoh._cochain_differential(M, n, vec).items():
                j = rep_index.get(k)
                if j is not None and c % M.p:
                    col[j] = c % M.p
            cols.append(col)
        columns.append(cols)
    return SparseCochainComplex(M.p, [len(inv) for inv in invariants], columns)


def verify_resolution_homotopy_per_key(M, nmax):
    """s.d + d.s = id checked on every basis key of B^n, n <= nmax.

    B^n has n + 1 character slots: (p^s)^(n+1) dim M keys.
    """
    return all(
        homcoh._homotopy_holds(M, n, key)
        for n in range(nmax + 1)
        for key in cochain_basis(M, n + 1)
    )


def _admissible(p, m, candidates):
    """Canonicalize, deduplicate and validate (base, new) residue candidates."""
    out, seen = [], set()
    for base, new in candidates:
        points = tuple(
            [sigdata.SigPoint("B0", 0, b) for b in base]
            + [sigdata.SigPoint("new", 1, b) for b in new]
        )
        sig = sigdata.canonicalize(sigdata.Signature(p, m, points))
        if sig.points in seen:
            continue
        seen.add(sig.points)
        if sigdata.validate_signature(sig).passed:
            out.append(sig)
    out.sort(key=lambda sg: tuple(map(sigdata._canonical_key, sg.orbits)))
    return out


def enumerate_signatures_bruteforce(p, m, n_points):
    """Every residue tuple scanned: m^3 (m-1)^(|B|-3) candidates."""
    sigdata._check_enumeration_args(p, m, n_points)
    candidates = itertools.product(
        itertools.product(range(m), repeat=3),
        itertools.product(range(1, m), repeat=n_points - 3),
    )
    return _admissible(p, m, candidates)


def _multisets(lo, hi, k, total):
    """Non-decreasing k-tuples with entries in [lo, hi) summing to total."""
    if k == 0:
        if total == 0:
            yield ()
        return
    for first in range(lo, min(hi, total // k + 1)):
        for rest in _multisets(first, hi, k - 1, total - first):
            yield (first,) + rest


def enumerate_signatures_by_validation(p, m, n_points):
    """The level-0 construction (residues summing to m), each candidate validated."""
    sigdata._check_enumeration_args(p, m, n_points)
    candidates = (
        (base, new)
        for t in range(m + 1)
        for new in _multisets(1, m, n_points - 3, t)
        for base in _multisets(0, m, 3, m - t)
    )
    return _admissible(p, m, candidates)


def orbits_by_recursion(sig):
    """Every point's orbit b^(i+1) = p b^(i) mod m, point by point, level by level."""
    p, m, s = sig.p, sig.m, sig.s
    out = []
    for pt in sig.points:
        b, orbit = pt.b0 % m, []
        for _ in range(s):
            orbit.append(b)
            b = (b * p) % m
        out.append(tuple(orbit))
    return tuple(out)


def validate_signature_by_fractions(sig):
    """`validate_signature` with the identities in Fractions."""
    if gcd(sig.p, sig.m) != 1:
        return sigdata.ValidationReport(("p not invertible mod m",))
    if sig.m < 1:
        return sigdata.ValidationReport(("m must be a positive integer",))
    fails = sigdata._structural_failures(sig)
    s = sig.s
    for i in range(s):
        total = sum((sig.sigma(j, i) - 1) for j in range(sig.n_points))
        if total != -2:
            fails.append(f"level {i}: sum of (sigma - 1) is {total}, expected -2")
    for j in range(sig.n_points):
        s0 = sig.sigma(j, 0)
        for i in range(s):
            lhs = sig.sigma(j, i) - int(sig.sigma(j, i))
            rhs = sig.p**i * s0 - int(sig.p**i * s0)
            if lhs != rhs:
                fails.append(f"point {j}, level {i}: fractional orbit identity broken")
            if sig.sigma(j, i) == 1:
                fails.append(f"point {j}, level {i}: sigma = 1 is forbidden")
    return sigdata.ValidationReport(tuple(fails))


# ---------------------------------------------------------------------------
# normalized rational functions: the reference form type of the Cartier
# operator, its gcd and its polynomial division


def poly_divmod(a, b):
    """(q, r) with a = q b + r and deg r < deg b, by long division."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    d = a.descriptor
    db = b.degree
    if a.degree < db:
        return Poly(d, []), a
    r = list(a.coeffs)
    q = [d.zero()] * (a.degree - db + 1)
    inv = b.lead.inverse()
    for i in range(a.degree - db, -1, -1):
        c = r[i + db] * inv
        if c:
            q[i] = c
            for j, bc in enumerate(b.coeffs):
                r[i + j] = r[i + j] - c * bc
    return Poly(d, q), Poly(d, r)


def poly_gcd(a, b):
    """The monic gcd of a and b (0 when both are 0), by Euclid's algorithm."""
    while not b.is_zero():
        a, b = b, poly_divmod(a, b)[1]
    return a * a.lead.inverse() if not a.is_zero() else a


def multiplicity_at(f, xi):
    """Multiplicity of the root xi of a nonzero polynomial (0 if not a root)."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    d = f.descriptor
    lin = Poly(d, [-d.element(xi), d.one()])
    n = 0
    while True:
        q, rem = poly_divmod(f, lin)
        if not rem.is_zero():
            return n
        f, n = q, n + 1


class RationalFunction:
    """Quotient of polynomials, kept coprime with a monic denominator."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, denominator):
        if isinstance(numerator, Poly) and isinstance(denominator, Poly):
            pass
        else:
            raise TypeError("numerator and denominator must be Poly")
        if denominator.is_zero():
            raise ZeroDivisionError("zero denominator")
        if numerator.descriptor != denominator.descriptor:
            raise ValueError("field mismatch")
        if numerator.is_zero():
            num = numerator
            den = Poly.constant(denominator.descriptor, 1)
        else:
            g = poly_gcd(numerator, denominator)
            num = poly_divmod(numerator, g)[0]
            den = poly_divmod(denominator, g)[0]
            c = den.lead.inverse()
            num, den = num * c, den * c
        self.numerator = num
        self.denominator = den

    @property
    def descriptor(self):
        return self.numerator.descriptor

    @staticmethod
    def from_poly(poly):
        return RationalFunction(poly, Poly.constant(poly.descriptor, 1))

    @staticmethod
    def constant(descriptor, value):
        return RationalFunction.from_poly(Poly.constant(descriptor, value))

    def is_zero(self):
        return self.numerator.is_zero()

    def __bool__(self):
        return bool(self.numerator)

    def coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.descriptor != self.descriptor:
                raise ValueError("field mismatch")
            return other
        if isinstance(other, Poly):
            return RationalFunction.from_poly(other)
        if isinstance(other, (int, FieldElement)):
            return RationalFunction.constant(self.descriptor, other)
        return NotImplemented

    def __add__(self, other):
        other = self.coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.numerator, self.denominator)

    def __sub__(self, other):
        other = self.coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self.coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(
            self.numerator * other.numerator, self.denominator * other.denominator
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(
            self.numerator * other.denominator, self.denominator * other.numerator
        )

    def __rtruediv__(self, other):
        return self.coerce(other) / self

    def __pow__(self, e):
        if e < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RationalFunction(self.denominator, self.numerator) ** (-e)
        return RationalFunction(self.numerator**e, self.denominator**e)

    def derivative(self):
        return RationalFunction(
            self.numerator.derivative() * self.denominator
            - self.numerator * self.denominator.derivative(),
            self.denominator * self.denominator,
        )

    def ord_at(self, xi):
        """Valuation at a point of P^1 (INF for the point at infinity)."""
        if self.is_zero():
            raise ValueError("the zero function has no valuation")
        if xi is INF:
            return self.denominator.degree - self.numerator.degree
        return multiplicity_at(self.numerator, xi) - multiplicity_at(self.denominator, xi)

    def embed(self, target):
        return RationalFunction(self.numerator.embed(target), self.denominator.embed(target))

    def __eq__(self, other):
        other = self.coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (
            self.numerator == other.numerator and self.denominator == other.denominator
        )

    def __hash__(self):
        return hash((self.numerator, self.denominator))

    def __repr__(self):
        return f"({self.numerator!r})/({self.denominator!r})"


def frobenius_cofactor(g):
    """g^{p-1} for a polynomial g, as the exact quotient g^p // g.

    In characteristic p, Frobenius is additive: g^p = sum c_k^p x^{pk}
    takes no product, only the p-th powers of the coefficients.
    """
    d = g.descriptor
    p = d.p
    gp = [d.zero()] * (p * g.degree + 1)
    for k, c in enumerate(g.coeffs):
        gp[p * k] = c.frobenius()
    return poly_divmod(Poly(d, gp), g)[0]


def cartier_rational(f):
    """C(f dx) for a rational function f = N/g, g monic.

    f dx = (N g^{p-1} / g^p) dx and C(h^p w) = h C(w), so
    C(f dx) = C(N g^{p-1}) / g dx (``cartier.cartier_poly``).  The factor
    g^{p-1} is g^p // g (``frobenius_cofactor``), one exact division.
    """
    if f.is_zero():
        return f
    g = f.denominator
    image = cartier.cartier_poly(f.numerator * frobenius_cofactor(g))
    return RationalFunction.from_poly(image) / g


def to_rational(h):
    """The ``BranchFraction`` h as a normalized rational function."""
    d = h.num.descriptor
    return RationalFunction(h.num, cartier._product_of_linear_powers(d, h.taus, h.exps))


def from_rational(taus, f):
    """f as a ``BranchFraction`` over ``taus``; ValueError for a pole elsewhere."""
    den = f.denominator
    exps = [multiplicity_at(den, t) for t in taus]
    if sum(exps) != den.degree:
        raise ValueError("the form has a pole away from the branch points")
    return BranchFraction(tuple(taus), f.numerator, exps)


def step_factor(cover, level):
    """prod (x - tau_j)^{e_j} of z_level = z_{level-1}^p prod (x - tau_j)^{e_j},
    as a rational function."""
    es = cover.step_exponents(level)
    d = cover.descriptor
    return RationalFunction(
        cartier._product_of_linear_powers(d, cover.taus, es),
        cartier._product_of_linear_powers(d, cover.taus, [-e for e in es]),
    )


def is_cartier_fixed_by_rationals(combo):
    """``cartier.is_cartier_fixed`` with every level a normalized rational
    function: C(h_l step_l dx) by ``cartier_rational`` against h_{l-1}."""
    cover = combo.cover
    hs = [to_rational(h) for h in combo.hs]
    return all(
        cartier_rational(h * step_factor(cover, level)) == hs[level - 1]
        for level, h in enumerate(hs)
    )


def cartier_rational_by_powering(f):
    """C(f dx) = C(u)/g dx with u = N g^(p-1), the power by repeated squaring."""
    d = f.descriptor
    p = d.p
    if f.is_zero():
        return f
    g = f.denominator
    u = f.numerator * g ** (p - 1)
    out = {}
    for n, c in enumerate(u.coeffs):
        if c and n % p == p - 1:
            out[(n + 1) // p - 1] = c.frobenius_inverse()
    if not out:
        return RationalFunction(Poly(d, []), Poly.constant(d, 1))
    deg = max(out)
    num = Poly(d, [out.get(k, d.zero()) for k in range(deg + 1)])
    return RationalFunction(num, g)


def cartier_of_linear_powers(descriptor, taus, exponents):
    """C(u dx)/dx for u = prod (x - tau_j)^{E_j}, E_j >= 0, as H C(R).

    E_j = p q_j + r_j with 0 <= r_j < p, so u = H^p R with H = prod
    (x - tau_j)^{q_j} and R = prod (x - tau_j)^{r_j}, and C(H^p R dx) =
    H C(R dx), since C is p^{-1}-linear.
    """
    p = descriptor.p
    image = cartier.cartier_of_small_powers(descriptor, taus, [e % p for e in exponents])
    h = cartier._product_of_linear_powers(descriptor, taus, [e // p for e in exponents])
    return h * image


def level_constant_by_full_product(cover, level):
    """``cartier.level_constant`` by forming C(u) = H C(R) and g in full.

    N/g = (1/Q) prod (x - tau_j)^{e_j}, u = N g^(p-1) = prod (x -
    tau_j)^{E_j}, and the image is kappa/Q dx iff C(u) Q = kappa g.
    """
    d = cover.descriptor
    p = d.p
    es = [e - (j < 2) for j, e in enumerate(cover.step_exponents((level + 1) % cover.s))]
    image = cartier_of_linear_powers(d, cover.taus, [e if e > 0 else (p - 1) * -e for e in es])
    if image.is_zero() or image.degree != -sum(e for e in es if e < 0) - 2:
        return d.zero()
    kappa = image.lead
    g = cartier._product_of_linear_powers(d, cover.taus, [-e for e in es])
    q = Poly(d, [d.zero(), -d.one(), d.one()])
    return kappa if image * q == g * kappa else d.zero()


def check_candidate_by_rationals(sig, descriptor, tau_new):
    """(lambdas, None) when every level holds, else (None, reason).

    Level i forms C((1/Q) step_factor(i + 1) dx) Q as a normalized
    rational function; the reason is the first failure at the first
    failing level: "zero image", "non-constant denominator" or
    "non-constant numerator".
    """
    cover = search.build_cover(sig, descriptor, tau_new)
    d = descriptor
    x = Poly.x(d)
    q = x * (x - Poly.constant(d, 1))
    inv_q = RationalFunction(Poly.constant(d, 1), q)
    s = cover.s
    lams = []
    for i in range(s):
        image = cartier_rational_by_powering(inv_q * step_factor(cover, (i + 1) % s))
        const = image * RationalFunction.from_poly(q)
        if const.is_zero():
            return None, "zero image"
        if const.denominator.degree > 0:
            return None, "non-constant denominator"
        if const.numerator.degree > 0:
            return None, "non-constant numerator"
        lams.append(const.numerator.coeffs[0])
    return lams, None


# ---------------------------------------------------------------------------
# truncated Laurent series and local expansions: the reference for the
# closed-form orders and leading coefficients of ``cartier`` and ``deform``
#
# Precision comes from valuations, and nothing is retried.  An expansion
# at the center c is built once from series of
#
#     L = max(upto, v) - v + 1 + [c finite] m_c (1 + D)
#
# terms: v is the least ``cartier.ord_single_form`` (the exact order of a
# term h_l z_l dx) over the nonzero h_l, m_c the ramification index at c
# and D the largest |ord_{tau_c} h_l|, the multiplicity of tau_c in the
# numerator or the denominator of h_l once their common factors x - tau_c
# are divided out (``BranchFraction.reduced_at``).  Products, inverses and
# m-th roots of series keep the least relative precision of their
# factors.  It is lost only by the factor x - tau_c = t^{m_c} of the
# radicand (m_c), by a numerator with a D-fold zero at tau_c (m_c D, and
# m_c more at tau_c = 0, where x itself starts at t^{m_c}) and by the
# same factor in the denominator, whose series is a product of powers of
# the factor series (m_c); nothing is lost at infinity.  So every
# coefficient through ``upto`` is exact.  The derived form is sized by
# its own orders.


class LaurentSeries:
    """Truncated Laurent expansion: coefficients for orders start..trunc."""

    __slots__ = ("descriptor", "start", "coeffs", "trunc")

    def __init__(self, descriptor, start, coeffs, trunc=None):
        coeffs = list(coeffs)
        if trunc is None:
            trunc = start + len(coeffs) - 1
        if trunc - start + 1 != len(coeffs):
            raise ValueError("coefficient window does not match orders")
        # canonical window: drop leading zeros (keeps truncation order)
        while coeffs and coeffs[0].is_zero():
            coeffs = coeffs[1:]
            start += 1
        if not coeffs:
            start = trunc + 1
        self.descriptor = descriptor
        self.start = start
        self.coeffs = tuple(coeffs)
        self.trunc = trunc

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def order(self):
        for k, c in enumerate(self.coeffs):
            if c:
                return self.start + k
        return None

    def coeff(self, n):
        if n < self.start or n > self.trunc:
            return self.descriptor.zero()
        return self.coeffs[n - self.start]

    def __add__(self, other):
        if isinstance(other, LaurentSeries):
            if other.descriptor != self.descriptor:
                raise ValueError("field mismatch")
            start = min(self.start, other.start)
            trunc = min(self.trunc, other.trunc)
            coeffs = [self.coeff(n) + other.coeff(n) for n in range(start, trunc + 1)]
            return LaurentSeries(self.descriptor, start, coeffs, trunc)
        return NotImplemented

    def __neg__(self):
        return LaurentSeries(
            self.descriptor, self.start, [-c for c in self.coeffs], self.trunc
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = self.descriptor.element(c)
        return LaurentSeries(
            self.descriptor, self.start, [a * c for a in self.coeffs], self.trunc
        )

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.scale(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        if other.descriptor != self.descriptor:
            raise ValueError("field mismatch")
        start = self.start + other.start
        trunc = min(self.start + other.trunc, other.start + self.trunc)
        zero = self.descriptor.zero()
        n = trunc - start + 1
        if n <= 0:
            return LaurentSeries(self.descriptor, start, [], start - 1)
        out = [zero] * n
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    k = i + j
                    if k < n and b:
                        out[k] = out[k] + a * b
        return LaurentSeries(self.descriptor, start, out, trunc)

    __rmul__ = scale

    def __pow__(self, e):
        """self^e by repeated squaring; a negative e inverts first."""
        if e < 0:
            return self.inverse() ** -e
        # the unit gets this series' window so it does not truncate products
        d = self.descriptor
        result = LaurentSeries(d, 0, [d.one()] + [d.zero()] * max(0, self.trunc - self.start))
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def window(self):
        """(start, trunc): the orders the series knows."""
        return self.start, self.trunc

    def shift(self, k):
        """Multiply by t^k."""
        return LaurentSeries(
            self.descriptor, self.start + k, list(self.coeffs), self.trunc + k
        )

    def inverse(self):
        """Reciprocal; requires a nonzero coefficient at the start order."""
        if not self.coeffs or self.coeffs[0].is_zero():
            raise ZeroDivisionError("series inverse needs a unit leading coefficient")
        n = self.trunc - self.start + 1
        inv0 = self.coeffs[0].inverse()
        out = [inv0] + [self.descriptor.zero()] * (n - 1)
        for k in range(1, n):
            acc = self.descriptor.zero()
            for j in range(1, k + 1):
                if j < len(self.coeffs):
                    acc = acc + self.coeffs[j] * out[k - j]
            out[k] = -acc * inv0
        return LaurentSeries(self.descriptor, -self.start, out, -self.start + n - 1)

    def __truediv__(self, other):
        return self * other.inverse()

    def nth_root(self, m, lead_root):
        """A series y with y^m = self, for m prime to the characteristic.

        The start order must be divisible by m.  ``lead_root``, an m-th
        root of the leading coefficient, fixes the branch: for p not
        dividing m the root with that leading coefficient is unique.
        Newton's iteration y <- ((m - 1) y + u / y^(m-1)) / m on the
        unit part u (u_0 = 1), from y = 1, doubles the correct prefix at
        every step, since the derivative m y^(m-1) is a unit.
        """
        d = self.descriptor
        if m % d.p == 0:
            raise ValueError("root index divisible by the characteristic")
        if not self.coeffs or self.coeffs[0].is_zero():
            raise ValueError("series root needs a unit leading coefficient")
        if self.start % m != 0:
            raise ValueError("start order not divisible by the root index")
        c0 = self.coeffs[0]
        if lead_root**m != c0:
            raise ValueError("lead_root is not an m-th root of the leading coefficient")
        n = self.trunc - self.start + 1
        u = self.shift(-self.start).scale(c0.inverse())
        y = LaurentSeries(d, 0, [d.one()] + [d.zero()] * (n - 1))
        minv = d.element(m).inverse()
        known = 1
        while known < n:
            y = (y.scale(m - 1) + u * y ** (1 - m)).scale(minv)
            known *= 2
        return y.scale(lead_root).shift(self.start // m)

    def derivative(self):
        """Term-wise d/dt."""
        coeffs = [
            self.descriptor.element(n) * self.coeff(n)
            for n in range(self.start, self.trunc + 1)
        ]
        return LaurentSeries(self.descriptor, self.start - 1, coeffs, self.trunc - 1)

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        if self.descriptor != other.descriptor:
            return False
        lo = min(self.start, other.start)
        hi = min(self.trunc, other.trunc)
        return all(self.coeff(n) == other.coeff(n) for n in range(lo, hi + 1))

    def __repr__(self):
        terms = [
            f"({self.coeff(n)!r})*t^{n}"
            for n in range(self.start, self.trunc + 1)
            if self.coeff(n)
        ]
        body = " + ".join(terms) if terms else "0"
        return f"LaurentSeries({body} + O(t^{self.trunc + 1}))"


def _monomial(descriptor, c, k, length):
    """c t^k, known through order k + length - 1."""
    coeffs = [descriptor.element(c)] + [descriptor.zero()] * (length - 1)
    return LaurentSeries(descriptor, k, coeffs)


def _eval_poly(poly, x):
    d = poly.descriptor
    acc = None
    for c in reversed(poly.coeffs):
        cd = _monomial(d, c, 0, x.trunc - x.start + 1)
        acc = cd if acc is None else acc * x + cd
    return acc


def expand_combination(cover, hs, center, upto, branch):
    """Expansion of a nonzero sum_l h_l z_l dx at a critical point.

    ``center`` is a finite branch index or INF.  The local parameter is t
    with x = tau_c + t^{m_c} (resp. x = t^{-m_inf}); returns the
    dt-coefficient with coefficients up to order ``upto``, over the
    cover's field or the minimal extension needed for the branch
    constant of z.  Over the dual numbers the epsilon-part is the
    expansion of ``cartier.epsilon_form``.

    The branch of z_0 is fixed by ``branch``, the (root, field) of
    ``cartier.branch_root`` at this center; higher levels follow from the
    Frobenius recursion, so all levels use consistent branches.

    It is the sum of the form's level series from ``expand_levels``: one
    frame of L = max(upto, v) - v + 1 + [c finite] m_c (1 + D) terms,
    from the valuations named and justified in the section comment above,
    built once; there is no retry, and a window ending below ``upto``
    raises ArithmeticError.
    """
    (levels,) = expand_levels(cover, [hs], center, upto, branch)
    return functools.reduce(operator.add, [ser for ser in levels if ser is not None])


def expand_levels(cover, forms, center, upto, branch):
    """Level series of several nonzero forms sum_l h_l z_l dx at one critical point.

    ``forms`` lists the forms' h-tuples; returns, per form, one series of
    h_l z_l dx per level (None where h_l = 0), every one exact through
    ``upto``, so a caller reads the expansion of sum_l c_l h_l z_l dx,
    every c_l != 0, as sum_l c_l times the level series.  The window L of
    ``expand_combination`` depends only on the orders of the nonzero
    h_l, which such c_l leave alone, and the one frame (``_expand``) is
    built with the largest L over the forms: a longer window is still
    exact.
    """
    reduced, length = [], 0
    for hs in forms:
        orders = _term_orders(cover, hs, center)
        if not orders:
            raise ValueError("the zero form has no expansion")
        v = min(orders)
        size = max(upto, v) - v + 1
        if center is not INF:
            hs = tuple(h.reduced_at(center) for h in hs)
            mult = max(abs(h.order(center)) for h in hs if not h.is_zero())
            size += cover.m_at(center) * (1 + mult)
        reduced.append(hs)
        length = max(length, size)
    out = _expand(cover, reduced, center, length, branch)
    if any(ser.window()[1] < upto for levels in out for ser in levels if ser is not None):
        raise ArithmeticError("expansion ends below upto: the precision rule is broken")
    return out


def _expand(cover, forms, center, length, branch):
    """The local frame at a critical point, from series of ``length`` terms,
    and every form's level series in it.

    The frame is x, dx, the factor series x - tau_k, z_0 (the m-th root
    of the radicand, by Newton) and the z_l of the Frobenius recursion.
    Each nonzero h_l = P_l / prod (x - tau_k)^{e_k} gives the series of
    P_l z_l dx times the inverse of a product of powers of the factor
    series, one inverse per exponent vector over all the forms; a zero
    h_l gives None.
    """
    m = cover.m
    mj = cover.m_at(center)
    root, desc = branch
    if desc != cover.descriptor:
        cover = cover.embed(desc)
        forms = [tuple(h.embed(desc, cover.taus) for h in hs) for hs in forms]
    if center is INF:
        x = _monomial(desc, 1, -mj, length)
        dx = x.derivative()
    else:
        x = _monomial(desc, cover.taus[center], 0, length) + _monomial(desc, 1, mj, length - mj)
        dx = _monomial(desc, mj, mj - 1, length)
    factors = [x - _monomial(desc, t, 0, length) for t in cover.taus]
    # z_0 from the radicand, then the Frobenius recursion
    rad = _monomial(desc, 1, 0, length)
    for k, (fk, orbit) in enumerate(zip(factors, cover.orbits)):
        rad = fk ** orbit[0] if k == 0 else rad * fk ** orbit[0]
    zs = [rad.nth_root(m, root)]
    for level in range(1, cover.s):
        z = zs[-1] ** desc.p
        for fk, e in zip(factors, cover.step_exponents(level)):
            if e:
                z = z * fk**e
        zs.append(z)
    inverses = {}
    out = []
    for hs in forms:
        levels = []
        for h, z in zip(hs, zs):
            if h.is_zero():
                levels.append(None)
                continue
            term = _eval_poly(h.num, x) * z * dx
            if any(h.exps):
                inv = inverses.get(h.exps)
                if inv is None:
                    den = None
                    for fk, e in zip(factors, h.exps):
                        if e:
                            den = fk**e if den is None else den * fk**e
                    inv = inverses[h.exps] = den.inverse()
                term = term * inv
            levels.append(term)
        out.append(levels)
    return out


def _term_orders(cover, hs, center):
    """The ``cartier.ord_single_form`` of each nonzero term h_l z_l dx."""
    return [
        cartier.ord_single_form(cover, level, h, center)
        for level, h in enumerate(hs)
        if not h.is_zero()
    ]


def omega_form(datum, i):
    """The level-i eigenform eps_i * z_i * dx / prod_{B0 finite}(x - tau).

    A combination whose only nonzero level is i (mod s).
    """
    cover = datum.cover
    level = i % cover.s
    if datum.epsilon[level].is_zero():
        raise ValueError("eigenform constants must be units")
    hs = list(cartier.omega_combination(datum).hs)
    zero = BranchFraction(cover.taus, Poly(cover.descriptor, []), ())
    hs = [h if l == level else zero for l, h in enumerate(hs)]
    return FormCombination(cover, tuple(hs))


def phi_basis(datum):
    """The forms phi_l of ``cartier.phi_coefficients``, as combinations."""
    rows, field = cartier.phi_coefficients(datum)
    cover = datum.embedded(field).cover
    exps = (1, 1) + (0,) * (len(cover.taus) - 2)
    return [
        FormCombination(
            cover, tuple(BranchFraction(cover.taus, Poly.constant(field, c), exps) for c in row)
        )
        for row in rows
    ]


def ord_at_critical(combo, center):
    """Exact vanishing order of a combination at a critical point.

    When the terms' orders ``cartier.ord_single_form`` are pairwise
    distinct the order is their minimum; when some tie, the local
    expansion is built once, up to the Riemann-Hurwitz bound
    ``_order_bound``, with no retry.  The input must be nonzero.
    """
    if combo.is_zero():
        raise ValueError("the zero form has no order")
    orders = _term_orders(combo.cover, combo.hs, center)
    if len(set(orders)) == len(orders):
        return min(orders)
    branch = cartier.branch_root(combo.cover, center)
    order = expand_combination(combo.cover, combo.hs, center, _order_bound(combo), branch).order()
    if order is None:
        # only possible on a disconnected cover: the form is zero on the
        # component through this point
        raise ArithmeticError("the form vanishes identically at this point")
    return order


def _order_bound(combo):
    """An upper bound for the order of a combination at any point above a branch.

    On the smooth complete cover Z, a differential that is not zero on
    the component C through the point P has sum_{P' in C} ord_{P'} =
    2g_C - 2.  Above a branch Q each term has its ``ord_single_form`` at
    every point, so ord_{P'} >= lb_Q, the least of them; over no branch
    the terms are regular (a ``BranchFraction`` has no pole elsewhere).
    Hence ord_P <= 2g_C - 2 + sum_Q (m/m_Q) max(0, -lb_Q), with m/m_Q
    points above Q.  By Riemann-Hurwitz the degree-m cover has 2g - 2 =
    -2m + sum_Q (m - m/m_Q), shared by its d = gcd(m, b_Q) isomorphic
    components.  Raises KeyError when infinity is not a branch of the
    cover.
    """
    cover = combo.cover
    m = cover.m
    branches = [*range(len(cover.taus)), INF]
    sheets = {Q: m // cover.m_at(Q) for Q in branches}
    bound = (sum(m - n for n in sheets.values()) - 2 * m) // gcd(
        m, *(cover.orbit_at(Q)[0] for Q in branches)
    )
    for Q in branches:
        bound += sheets[Q] * max(0, -min(_term_orders(cover, combo.hs, Q)))
    return bound


def omega_orders_by_ord_at_critical(datum):
    """``search.omega_orders`` from ``ord_at_critical`` of each ``omega_form``."""
    slots = search.critical_slots(datum.signature)
    return [
        [ord_at_critical(omega_form(datum, i), key) for key in slots]
        for i in range(datum.signature.s)
    ]


def search_field_by_full_scan(sig, descriptor):
    """``search.search_field`` with ``check_candidate`` run on every tuple.

    Candidates are scanned in serialization order, new points with
    identical residues in increasing order, and each hit gets its own
    lambda and eps.
    """
    sig = sigdata.canonicalize(sig)
    report = sigdata.validate_signature(sig)
    if not report.passed:
        raise ValueError(f"invalid signature: {report.failures}")
    new = sig.new_indices()
    candidates = [
        e for e in descriptor.elements() if not e.is_zero() and e != descriptor.one()
    ]
    found = []
    slot_b = [sig.points[j].b0 for j in new]
    for tau in itertools.permutations(candidates, len(new)):
        if any(
            slot_b[a] == slot_b[b] and tau[a].key() >= tau[b].key()
            for a, b in itertools.combinations(range(len(new)), 2)
        ):
            continue
        lams = search.check_candidate(sig, descriptor, tau)
        if lams is None:
            continue
        eps, eps_field = search.normalize_epsilons(descriptor, lams)
        found.append(
            search.DeformationDatum(
                sig,
                eps_field,
                tuple(t.embed(eps_field) for t in tau),
                eps,
                tuple(l.embed(eps_field) for l in lams),
            )
        )
    found.sort(key=lambda dt: tuple(t.key() for t in dt.tau))
    return found


def lift_datum_by_rationals(datum, delta):
    """``deform.lift_datum`` with every Cartier image a normalized rational function.

    The corrections are spanned over F_p by x^k gamma^t/(Q N), k = 0..nu,
    t < r; the images C(w step_i dx) and the right-hand side -C(A_i
    step_i dx) are brought to their least common denominator, one gcd
    per image, and the numerators' F_p coordinates form the system.
    """
    if not sigdata.is_pure(datum.signature):
        raise ValueError("lift requires a pure signature")
    d = datum.descriptor
    delta = tuple(d.element(v) for v in delta)
    x = Poly.x(d)
    den = datum.q_poly
    for tau in datum.tau:
        den = den * (x - Poly.constant(d, tau))
    basis = [
        RationalFunction(x**k, den) * d.generator() ** t
        for k in range(len(datum.tau) + 1)
        for t in range(d.r)
    ]
    cover = datum.cover
    corrections = []
    moved = {slot: delta[k] for k, (slot, _) in enumerate(deform._new_slots(datum))}
    polar = epsilon_form_by_rationals(cartier.omega_combination(datum), INF, moved)
    for i, a_i in enumerate(polar):
        step = step_factor(cover, i)
        images = [cartier_rational(w * step) for w in basis]
        images.append(-cartier_rational(a_i * step))
        common = Poly.constant(d, 1)
        for f in images:
            common = common * poly_divmod(f.denominator, poly_gcd(common, f.denominator))[0]
        nums = [f.numerator * poly_divmod(common, f.denominator)[0] for f in images]
        width = max(len(n.coeffs) for n in nums)
        rows = [
            [a for k in range(width) for a in (n.coeffs[k] if k <= n.degree else d.zero()).coeffs]
            for n in nums
        ]
        *columns, b = rows
        A = list(zip(*columns, strict=True))
        sol = homcoh.solve_mod_p(A, b, d.p)
        if sol is None or homcoh.rank_mod_p(A, d.p) != len(columns):
            raise ArithmeticError(f"level {i}: no unique logarithmic correction")
        h_i = RationalFunction(Poly(d, []), Poly.constant(d, 1))
        for coeff, w in zip(sol, basis):
            h_i = h_i + w * coeff
        corrections.append(h_i)
    return deform.DeformedDatum(datum, delta, tuple(corrections))


def epsilon_form_by_rationals(combo, center, delta, thetas=None):
    """``cartier.epsilon_form`` over normalized rational functions: the
    levels g_l = theta_l + delta_c h_l' + h_l (1/m) sum_{k != c} (delta_c -
    delta_k) b_k^(l) / (x - tau_k), as ``RationalFunction``s."""
    cover = combo.cover
    d = cover.descriptor
    x = Poly.x(d)
    zero = d.zero()
    delta_c = delta.get(center, zero)
    minv = d.element(cover.m).inverse()
    out = []
    for level, h in enumerate(combo.hs):
        h = to_rational(h)
        moved = RationalFunction(Poly(d, []), Poly.constant(d, 1))
        for k, (tau, orbit) in enumerate(zip(cover.taus, cover.orbits)):
            shift = delta_c - delta.get(k, zero)
            if k != center and not shift.is_zero():
                moved = moved + RationalFunction(
                    Poly.constant(d, d.element(orbit[level]) * shift), x - Poly.constant(d, tau)
                )
        g = h * moved * minv + h.derivative() * delta_c
        out.append(g + to_rational(thetas[level]) if thetas else g)
    return tuple(out)


def branch_roots(datum):
    """The branch of z at each new point for its specialty expansions:
    ``cartier.branch_root`` on the datum's cover over ``field_with_roots``,
    the branch ``deform._leading_coefficients`` takes at a tie point.

    It depends on the datum and the point alone, so it is taken once and
    shared by every lift of the datum.
    """
    cover = datum.embedded(datum.field_with_roots()).cover
    return [cartier.branch_root(cover, slot) for slot, _ in deform._new_slots(datum)]


def specialty_series(deformed, k, branch):
    """(base, epsilon-part, M) through order M at the k-th new point, per
    nonzero c in F_{p^s}, read off one frame of level series.

    The expansion is F_p-linear in c level by level: level i scales by
    c^{p^i}, and so does level i of the epsilon-part's form, which is
    linear in the h_i.  So omega's level series a_{i,n} and, when it is
    nonzero, the epsilon-part's come from one frame
    (``expand_levels``), and each c takes its coefficients
    n <= M as sum_i c^{p^i} a_{i,n}, with c embedded F_{p^s} ->
    ``field_with_roots`` -> the branch field.  A zero epsilon-part gives
    the zero series.
    """
    datum = deformed.base
    sig = datum.signature
    slot, j = deform._new_slots(datum)[k]
    target = sig.m_j(j) + sig.a_min(j) - 1
    s = datum.cover.s
    d = datum.descriptor
    big = datum.field_with_roots()
    unit = cartier.omega_combination(datum.embedded(big))
    eps_unit = cartier.epsilon_form(
        unit,
        slot,
        {slot: deformed.delta[k].embed(big)},
        [t.embed(big, unit.cover.taus) for t in deformed.h],
    )
    forms = [unit.hs] if eps_unit.is_zero() else [unit.hs, eps_unit.hs]
    base, *eps = expand_levels(unit.cover, forms, slot, target, branch)
    desc = branch[1]
    for c0 in FieldDescriptor.get(d.p, s).elements():
        if c0.is_zero():
            continue
        c = c0.embed(big).embed(desc)
        cs = [c ** (d.p**i) for i in range(s)]
        yield (
            _combine(base, cs, target),
            _combine(eps[0], cs, target) if eps else LaurentSeries(desc, target + 1, []),
            target,
        )


def _combine(levels, cs, upto):
    """sum_i cs[i] levels[i] through order ``upto``; a None level is zero."""
    terms = [(c, ser) for c, ser in zip(cs, levels) if ser is not None]
    desc = terms[0][1].descriptor
    start = min(upto + 1, *(ser.start for _, ser in terms))
    zero = desc.zero()
    coeffs = [sum((c * ser.coeff(n) for c, ser in terms), zero) for n in range(start, upto + 1)]
    return LaurentSeries(desc, start, coeffs, upto)


def is_j_special_by_expansions(deformed, k, branch):
    """``deform.is_j_special`` with one expansion per c in F_{p^s}^x.

    Every nonzero c scales omega's levels by c^{p^i}, and the
    epsilon-part's form (derived once, linear in c level by level) the
    same way; each scaled form goes through ``expand_combination`` on
    its own, where ``specialty_series`` reads every c off one set of
    level series and the package reads orders and leading coefficients
    in closed form.
    """
    return all(
        base.order() == target and eps.start >= target
        for base, eps, target in specialty_expansions(deformed, k, branch)
    )


def specialty_expansions(deformed, k, branch):
    """(base, epsilon-part, M) at the k-th new point per nonzero c in F_{p^s}.

    When the epsilon-part's form is zero its expansion is the zero
    series, which starts above M.
    """
    datum = deformed.base
    sig = datum.signature
    slot, j = deform._new_slots(datum)[k]
    target = sig.m_j(j) + sig.a_min(j) - 1
    s = datum.cover.s
    d = datum.descriptor
    sub = FieldDescriptor.get(d.p, s)
    big = datum.field_with_roots()
    unit = cartier.omega_combination(datum.embedded(big))
    eps_unit = cartier.epsilon_form(
        unit,
        slot,
        {slot: deformed.delta[k].embed(big)},
        [t.embed(big, unit.cover.taus) for t in deformed.h],
    )
    for c0 in sub.elements():
        if c0.is_zero():
            continue
        c = c0.embed(big)
        cs = [c ** (d.p**i) for i in range(s)]
        base = expand_combination(
            unit.cover, tuple(h * ci for h, ci in zip(unit.hs, cs)), slot, target, branch
        )
        if eps_unit.is_zero():
            eps = LaurentSeries(branch[1], target + 1, [])
        else:
            eps = expand_combination(
                unit.cover, tuple(g * ci for g, ci in zip(eps_unit.hs, cs)), slot, target, branch
            )
        yield base, eps, target


def rigidity_check_by_directions(datum):
    """``deform.rigidity_check`` with one lift per direction.

    Every c e_k, c in F_q^x, is lifted, sent through Kodaira-Spencer and
    tested for specialty at every new point by
    ``is_j_special_by_expansions``: n_new (q - 1) + 1 lifts, where the
    package derives the line F_q^x e_k from the lift of e_k.
    """
    d = datum.descriptor
    n_new = len(datum.tau)
    zero = tuple(d.zero() for _ in range(n_new))
    report = {"zero_direction_special": None, "directions": [], "rigid": None}
    branches = branch_roots(datum)
    lifted0 = deform.lift_datum(datum, zero)
    ks0 = deform.kodaira_spencer(lifted0)
    report["zero_roundtrip"] = ks0 == zero
    report["zero_direction_special"] = all(
        is_j_special_by_expansions(lifted0, k, branches[k]) for k in range(n_new)
    )
    directions = []
    for k in range(n_new):
        for c in d.elements():
            if c.is_zero():
                continue
            vec = [d.zero()] * n_new
            vec[k] = c
            directions.append(tuple(vec))
    all_fail = True
    for vec in directions:
        lifted = deform.lift_datum(datum, vec)
        roundtrip = deform.kodaira_spencer(lifted) == vec
        fails_at = [
            k for k in range(n_new) if not is_j_special_by_expansions(lifted, k, branches[k])
        ]
        entry = {
            "delta": [v.to_json() for v in vec],
            "roundtrip": roundtrip,
            "fails_specialty_at": fails_at,
        }
        report["directions"].append(entry)
        if not fails_at or not roundtrip:
            all_fail = False
    report["rigid"] = (
        all_fail and report["zero_direction_special"] and report["zero_roundtrip"]
    )
    return report


def series_at(f, xi, n):
    """Truncated Laurent expansion of a rational function at xi.

    The local parameter is t = x - xi at a finite point and t = 1/x at
    infinity; coefficients run up to order n inclusive.  Numerator and
    denominator are rewritten in t (a Taylor shift by Horner's rule at
    xi, reversed coefficients at infinity), their valuations split off,
    and the unit parts divided as series of n - ord + 1 terms.
    """
    d = f.descriptor
    if f.is_zero():
        return LaurentSeries(d, n + 1, [], n)
    v = f.ord_at(xi)
    if n < v:
        raise ValueError("truncation order below the valuation")
    length = n - v + 1

    def in_t(g):
        """(valuation, unit part as a series of ``length`` terms) of g in t."""
        if xi is INF:
            coeffs = g.coeffs[::-1]
        else:
            acc = Poly(d, [])
            lin = Poly(d, [d.element(xi), d.one()])  # x = xi + t
            for c in reversed(g.coeffs):
                acc = acc * lin + c
            coeffs = acc.coeffs
        k = next(k for k, c in enumerate(coeffs) if c)
        win = list(coeffs[k : k + length])
        return k, LaurentSeries(d, 0, win + [d.zero()] * (length - len(win)))

    vn, num = in_t(f.numerator)
    vd, den = in_t(f.denominator)
    shift = f.denominator.degree - f.numerator.degree if xi is INF else 0
    # the quotient knows orders v .. v + length - 1 = n
    return (num * den.inverse()).shift(vn - vd + shift)
