"""First-order deformations of multiplicative data over the dual numbers.

A tangent direction assigns to every new branch point an epsilon-shift
delta_j; the eigenforms pick up epsilon-corrections theta_i whose
exactness (equivalently, membership in the Cartier kernel) is a linear
condition.  Solving it produces the lifted datum; specialty of the lift
at each new point is a condition on its expansions over k[eps] for every
element of the fixed space, whose epsilon-part is the plain expansion of
the derived form ``cartier.epsilon_form``, and the generic failure of
specialty along every direction is the rigidity statement.  No expansion
is built: every element of the fixed space scales level l by c^{p^l}, c
in F_{p^s}, and these are s distinct characters of F_{p^s}^x, so by
Dedekind's independence of characters (Lang, Algebra, VI 4) the
epsilon-part vanishes below the target order for every c iff each level
does, which closed-form orders decide.  The base expansion's coefficient
at the target order is a sum of leading coefficients over the levels of
least order, a unit for every c when that level is unique.

Every form on the way is a ``cartier.BranchFraction``, a numerator over
powers of the x - tau at the finite branch points, whose exponents are
known in advance: sums, products, derivatives, orders and residues take
no gcd and no polynomial division.

The linear condition is written over one fixed denominator per level.
With Q N = x (x - 1) prod over the new points (x - tau), which is
squarefree, and N_i/g_i the level's step factor, every form that enters
is P N_i/D_i with D_i = Q N g_i, and C(P N_i/D_i dx) = C(P U_i)/D_i dx
with U_i = N_i D_i^(p-1) = prod (x - tau_j)^{E_j}.  The p-th-power split
E_j = p q_j + r_j writes U_i = H^p R with R = prod (x - tau_j)^{r_j},
and C(P H^p R) = H C(P R), since C is p^(-1)-linear; multiplying by H
is injective, so the system is the F_p coordinates of the polynomials
``cartier.cartier_poly(P R)``, and neither H nor U_i is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cartier, sigdata
from .algebra import INF, FieldDescriptor, Poly
from .homcoh import rank_mod_p, solve_mod_p


@dataclass(frozen=True)
class DeformedDatum:
    """A lifted datum: base, tangent direction, and eps-corrections.

    ``h[i]`` is the epsilon-part of omega_i relative to the moved
    Kummer coordinate: omega_{i,R} = (eps_i/Q + eps h_i) z_{i,R} dx.
    Rewriting z_{i,R} in terms of the base z_i contributes the polar
    part A_i, so the total eps-part over the base cover is A_i + h_i.
    """

    base: object  # search.DeformationDatum
    delta: tuple  # one FieldElement per new point
    h: tuple  # one cartier.BranchFraction per level, relative to z_{i,R} dx


def _new_slots(datum):
    """Cover branch indices and signature indices of the new points."""
    sig = datum.signature
    return [(2 + k, j) for k, j in enumerate(sig.new_indices())]


def _polar_part(datum, delta):
    """The forced eps-parts A_i = -(eps_i/(m Q)) sum_j b_j^{(i)} delta_j/(x-tau_j).

    One per level: the epsilon-part of omega_i at infinity, which never
    moves, when only the new points do.
    """
    moved = {slot: delta[k] for k, (slot, _) in enumerate(_new_slots(datum))}
    return cartier.epsilon_form(cartier.omega_combination(datum), INF, moved).hs


def _fp_coordinates(polys):
    """F_p coordinates of polynomials, one row of ints per polynomial.

    Each coefficient contributes its r coordinates, and every row is
    padded to the longest polynomial, so the rows are columns of one
    linear system.
    """
    d = polys[0].descriptor
    width = max(len(f.coeffs) for f in polys)
    pad = (d.zero(),)
    return [
        [a for c in f.coeffs + pad * (width - len(f.coeffs)) for a in c.coeffs] for f in polys
    ]


def lift_datum(datum, delta):
    """Solve for the eps-corrections keeping every form logarithmic.

    The total eps-part (A_i + h_i) z_i dx must be exact, equivalently
    in the kernel of the Cartier operator of the cover; this is a
    square F_p-linear condition on h_i inside the pole-bound space
    h_i = P/(Q N), P in the F_p-span of x^k gamma^t (k = 0..nu, t < r,
    gamma the field's generator, N = prod over the new points (x - tau)).
    Non-singularity of the system is equivalent to purity (the
    homogeneous solutions are exact isotypic sections, and those vanish
    exactly when the isotypic cohomology does), so non-pure input
    raises instead of silently producing junk, and a singular system
    for a pure base is an error, not a report.

    The system is written over one denominator per level.  With the
    step factor N_i/g_i and D_i = Q N g_i, every form that enters is
    (P/(Q N)) (N_i/g_i) = P N_i/D_i, so its Cartier image is C(P U_i)/D_i
    dx with U_i = N_i D_i^(p-1), and A_i = P_A/(Q N) with P_A = A_i Q N,
    the numerator of A_i times the linear factors of Q N its denominator
    lacks.  U_i is a product of linear powers, split as H^p R by E_j = p
    q_j + r_j (the module docstring), and C(w H^p R) = H C(w R).  A
    relation among rational functions over one denominator is the same
    relation among their numerators, and multiplying by H != 0 is
    injective, so the F_p coordinates of C(x^k gamma^t R) and -C(P_A R)
    give the same solution set and rank as any other common denominator:
    the solution is unique, and h_i is the same whatever denominator
    writes it.  Since C(gamma^t f) = gamma^(t/p) C(f), a level takes
    nu + 2 Cartier images: C(x^k R) for k = 0..nu and the right-hand side.
    """
    sig = datum.signature
    if not sigdata.is_pure(sig):
        raise ValueError("lift requires a pure signature")
    d = datum.descriptor
    p = d.p
    delta = tuple(d.element(v) for v in delta)
    if len(delta) != len(datum.tau):
        raise ValueError("one delta per new branch point")
    cover = datum.cover
    taus = cover.taus
    zero = d.zero()
    gamma_roots = [(d.generator() ** t).frobenius_inverse() for t in range(d.r)]
    corrections = []
    for i, a_i in enumerate(_polar_part(datum, delta)):
        if any(e > 1 for e in a_i.exps):
            raise ArithmeticError(f"level {i}: the polar part is not over Q N")
        # E_j = e_j + (p - 1) where N_i has x - tau_j to the e_j >= 0, and
        # (p - 1)(1 - e_j) where g_i has it to the -e_j > 0: either way
        # E_j = e_j - 1 mod p, the exponent of x - tau_j in step_i/(Q N)
        _, remainders = cartier.split_exponents([e - 1 for e in cover.step_exponents(i)], p)
        r = cartier._product_of_linear_powers(d, taus, remainders)
        cofactor = cartier._product_of_linear_powers(d, taus, [1 - e for e in a_i.exps])
        rhs = -cartier.cartier_poly(a_i.num * cofactor * r)
        images = [
            cartier.cartier_poly(Poly(d, [zero] * k + list(r.coeffs)))
            for k in range(len(datum.tau) + 1)
        ]
        columns = [image * c for image in images for c in gamma_roots]
        *columns, b = _fp_coordinates(columns + [rhs])
        A = list(zip(*columns, strict=True))
        sol = solve_mod_p(A, b, p)
        if sol is None:
            raise ArithmeticError(f"level {i}: no logarithmic correction exists")
        if rank_mod_p(A, p) != len(columns):
            raise ArithmeticError(f"level {i}: correction space is singular")
        num = Poly(d, [d.element(sol[k : k + d.r]) for k in range(0, len(sol), d.r)])
        corrections.append(cartier.BranchFraction(taus, num, (1,) * len(taus)))
    return DeformedDatum(datum, delta, tuple(corrections))


def kodaira_spencer(deformed):
    """Recover the tangent direction from the stored eps-parts alone.

    The correction h_i carries a simple pole at every moving branch
    point whose residue is eps_i b_j^{(i)} delta_j / (m Q(tau_j)), so
    delta_j = m Q(tau_j) Res_{tau_j}(h_i) / (eps_i b_j^{(i)}),
    independent of the level i; the cross-level agreement is checked.

    The residue is read in closed form (``BranchFraction.simple_residue``):
    ``lift_datum`` writes h_i over the squarefree Q N, so every pole is
    simple.
    """
    datum = deformed.base
    sig = datum.signature
    d = datum.descriptor
    q = datum.q_poly
    out = []
    for k, (slot, j) in enumerate(_new_slots(datum)):
        tau = datum.tau[k]
        vals = []
        for i in range(sig.s):
            b = sig.orbit(j)[i]
            if b % d.p == 0:
                continue  # the residue is killed by b in characteristic p
            res = deformed.h[i].simple_residue(slot)
            val = (d.element(sig.m) * q.evaluate(tau) * res) * (
                datum.epsilon[i] * d.element(b)
            ).inverse()
            vals.append(val)
        if not vals:
            raise ArithmeticError(f"new point {k}: no level determines delta")
        if any(v != vals[0] for v in vals[1:]):
            raise ArithmeticError(f"new point {k}: levels disagree on delta")
        out.append(vals[0])
    return tuple(out)


def _target(datum, k):
    """(slot, M): the cover index of the k-th new point and M = m_j + a_min - 1."""
    slot, j = _new_slots(datum)[k]
    sig = datum.signature
    return slot, sig.m_j(j) + sig.a_min(j) - 1


def _least_levels(datum, k):
    """The levels of omega whose term has the least order at the k-th new point.

    Level l of omega is (eps_l/Q) z_l dx, of order m_j b^(l)/m + m_j - 1
    there (``cartier.ord_single_form``), so the least order is M, taken
    on the levels where the orbit of the point is least.  Any other
    least order is an ArithmeticError.
    """
    slot, target = _target(datum, k)
    cover = datum.cover
    orders = {
        level: cartier.ord_single_form(cover, level, h, slot)
        for level, h in enumerate(cartier.omega_combination(datum).hs)
        if not h.is_zero()
    }
    if min(orders.values(), default=None) != target:
        raise ArithmeticError(f"new point {k}: omega's least order is not M = {target}")
    return [level for level, order in orders.items() if order == target]


def _leading_coefficients(datum, k, levels):
    """(A_l for l in ``levels``, field): the coefficients at M of omega's levels.

    In the local parameter t, x = tau_c + t^{m_j}, so 1/Q starts with
    Q(tau_c)^{-1} and dx with m_j.  z_0 starts with the branch root rho
    (``cartier.branch_root``), and z_l = z_{l-1}^p prod (x -
    tau_k)^{e_k^(l)} with e^(l) = ``step_exponents(l)`` starts with
    lead_l = lead_{l-1}^p prod_{k != c} (tau_c - tau_k)^{e_k^(l)}, the
    point's own factor being t^{m_j e_c}.  So A_l = eps_l Q(tau_c)^{-1}
    lead_l m_j, over the field of rho.
    """
    slot, _ = _new_slots(datum)[k]
    big = datum.embedded(datum.field_with_roots())
    cover = big.cover
    root, field = cartier.branch_root(cover, slot)
    tau = cover.taus[slot]
    scale = big.descriptor.element(cover.m_at(slot)) / big.q_poly.evaluate(tau)
    lead, out = root, []
    for level in range(max(levels) + 1):
        if level:
            step = big.descriptor.one()
            for i, (tau_i, e) in enumerate(zip(cover.taus, cover.step_exponents(level))):
                if e and i != slot:
                    step = step * (tau - tau_i) ** e
            lead = lead**field.p * step.embed(field)
        if level in levels:
            out.append(lead * (big.epsilon[level] * scale).embed(field))
    return out, field


def _omega_is_special(datum, k):
    """omega scaled by any c in F_{p^s}^x has order exactly M at the k-th new point.

    Level l scales by c^{p^l}, and no level's order is below M
    (``_least_levels``), so the order is M iff the coefficient at M,
    sum over the least levels l of A_l c^{p^l}, is nonzero.  With one
    least level it is the unit A_l c^{p^l} for every c, and no root is
    taken; at a tie point the p^s - 1 sums are evaluated.
    """
    levels = _least_levels(datum, k)
    if len(levels) == 1:
        return True
    leads, field = _leading_coefficients(datum, k, levels)
    p = field.p
    big = datum.field_with_roots()
    for c0 in FieldDescriptor.get(p, datum.cover.s).elements():
        if c0.is_zero():
            continue
        c = c0.embed(big).embed(field)
        if not sum((a * c ** (p**level) for a, level in zip(leads, levels)), field.zero()):
            return False
    return True


def _epsilon_vanishes(deformed, k):
    """The epsilon-part of the lift's specialty expansions at the k-th new
    point vanishes below M for every c in F_{p^s}^x.

    Its levels are those of ``cartier.epsilon_form``, scaled by c^{p^l}.
    The c -> c^{p^l}, l < s, are s distinct characters of F_{p^s}^x, so
    by Dedekind's independence of characters sum_l c^{p^l} a_{l,n} = 0
    for every c iff every a_{l,n} = 0: the part vanishes below M iff
    every nonzero level has ``ord_single_form`` >= M.
    """
    datum = deformed.base
    slot, target = _target(datum, k)
    g = cartier.epsilon_form(
        cartier.omega_combination(datum), slot, {slot: deformed.delta[k]}, deformed.h
    )
    return all(
        cartier.ord_single_form(datum.cover, level, g_l, slot) >= target
        for level, g_l in enumerate(g.hs)
        if not g_l.is_zero()
    )


def is_j_special(deformed, k):
    """Specialty of the lift at the k-th new point, over the dual numbers.

    Every nonzero element of the fixed space (coefficients c^{p^l} for
    c in F_{p^s}, scaled onto the omega_l) must have, at the moved
    branch point, a base expansion of order exactly M = m_j + a_min - 1
    and an epsilon-part that vanishes below M.  Both are decided from
    closed-form orders and leading coefficients, with no local
    expansion: the epsilon-part level by level (``_epsilon_vanishes``,
    by Dedekind's independence of characters) and the base by its
    coefficient at M (``_omega_is_special``), which depends on the datum
    and the point alone.
    """
    return _epsilon_vanishes(deformed, k) and _omega_is_special(deformed.base, k)


def rigidity_check(datum):
    """No nonzero tangent direction keeps the lift special everywhere.

    Every coordinate direction c e_k (c in F_q^x) must fail specialty at
    some new point and round-trip through Kodaira-Spencer; the zero
    direction must stay special at all of them and round-trip.  Returns a
    report with the per-direction outcomes.

    One lift per e_k serves the whole line F_q^x e_k, since the lift is
    F_q-linear in delta: A_i is linear and C(c f dx) = c^(1/p) C(f dx), so
    c h is a correction for c delta, and it is the one ``lift_datum``
    returns, as that raises unless the correction is unique.
    Kodaira-Spencer and the epsilon-part of every specialty expansion
    (``cartier.epsilon_form``) scale by c too, and a unit c changes
    neither a round trip nor an order.  Specialty splits as in
    ``is_j_special``: omega's part depends on the datum and the point
    alone and is decided once per point, and each lift tests only its
    epsilon-part.
    """
    d = datum.descriptor
    n_new = len(datum.tau)
    zero = (d.zero(),) * n_new
    lifted0 = lift_datum(datum, zero)
    omega_special = [_omega_is_special(datum, k) for k in range(n_new)]

    def special(lifted, k):
        return omega_special[k] and _epsilon_vanishes(lifted, k)

    zero_roundtrip = kodaira_spencer(lifted0) == zero
    zero_special = all(special(lifted0, k) for k in range(n_new))
    directions, all_fail = [], True
    for k in range(n_new):
        unit = tuple(d.one() if j == k else d.zero() for j in range(n_new))
        lifted = lift_datum(datum, unit)
        roundtrip = kodaira_spencer(lifted) == unit
        fails_at = [j for j in range(n_new) if not special(lifted, j)]
        all_fail = all_fail and roundtrip and bool(fails_at)
        directions += [
            {"delta": [(c * v).to_json() for v in unit], "roundtrip": roundtrip,
             "fails_specialty_at": list(fails_at)}
            for c in d.elements() if not c.is_zero()
        ]
    return {
        "zero_direction_special": zero_special,
        "directions": directions,
        "rigid": all_fail and zero_special and zero_roundtrip,
        "zero_roundtrip": zero_roundtrip,
    }
