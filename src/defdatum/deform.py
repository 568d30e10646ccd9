"""First-order deformations of multiplicative data over the dual numbers.

A tangent direction assigns to every new branch point an epsilon-shift
delta_j; the eigenforms pick up epsilon-corrections theta_i whose
exactness (equivalently, membership in the Cartier kernel) is a linear
condition.  Solving it produces the lifted datum; specialty of the lift
at each new point is then read off from honest local expansions over
k[eps], whose epsilon-part is the plain expansion of the derived form
``cartier.epsilon_form``, and the generic failure of specialty along
every direction is the rigidity statement.  The expansions are taken
level by level, once per lift and point: every element of the fixed
space scales level i by c^{p^i}, c in F_{p^s}, so each c is read off
the level series by linearity.

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
from .algebra import INF, FieldDescriptor, LaurentSeries, Poly
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


def branch_roots(datum):
    """The branch of z at each new point for its specialty expansions:
    ``cartier.branch_root`` on the datum's cover over ``field_with_roots``.

    It depends on the datum and the point alone, so it is taken once and
    shared by every lift of the datum.
    """
    cover = datum.embedded(datum.field_with_roots()).cover
    return [cartier.branch_root(cover, slot) for slot, _ in _new_slots(datum)]


def is_j_special(deformed, k, branch):
    """Specialty of the lift at the k-th new point, over the dual numbers.

    Every nonzero element of the fixed space (coefficients c^{p^i} for
    c in F_{p^s}, scaled onto the omega_i) is expanded at the moved
    branch point; specialty needs every coefficient below
    M = m_j + a_j - 1 to vanish identically (epsilon-parts included)
    and the coefficient at M to be a unit.  The expansions of every c
    are read off one frame of level series (``_specialty_series``).
    ``branch`` is the point's entry of ``branch_roots``.
    """
    for base, eps, target in _specialty_series(deformed, k, branch):
        # a series starts at its first nonzero coefficient
        if base.order() != target or eps.start < target:
            return False
    return True


def _specialty_series(deformed, k, branch):
    """(base, epsilon-part, M) through order M at the k-th new point, per
    nonzero c in F_{p^s}.

    The expansion is F_p-linear in c level by level: level i scales by
    c^{p^i}, and so does level i of the epsilon-part's form, which is
    linear in the h_i.  So omega's level series a_{i,n} and, when it is
    nonzero, the epsilon-part's come from one frame
    (``cartier.expand_levels``), and each c takes its coefficients
    n <= M as sum_i c^{p^i} a_{i,n}, with c embedded F_{p^s} ->
    ``field_with_roots`` -> the branch field.  A zero epsilon-part gives
    the zero series.
    """
    datum = deformed.base
    sig = datum.signature
    slot, j = _new_slots(datum)[k]
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
    base, *eps = cartier.expand_levels(unit.cover, forms, slot, target, branch)
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
    (``cartier.epsilon_form``, then its level series) scale by c too, and
    a unit c changes neither a round trip nor where a series starts.
    Each ``is_j_special`` call expands omega and the epsilon-part level
    by level in one frame and reads every element of the fixed space off
    those series.  The branch of z at each new point (``branch_roots``)
    is taken once and shared by every lift.
    """
    d = datum.descriptor
    n_new = len(datum.tau)
    branches = branch_roots(datum)
    zero = (d.zero(),) * n_new
    lifted0 = lift_datum(datum, zero)
    zero_roundtrip = kodaira_spencer(lifted0) == zero
    zero_special = all(is_j_special(lifted0, k, branches[k]) for k in range(n_new))
    directions, all_fail = [], True
    for k in range(n_new):
        unit = tuple(d.one() if j == k else d.zero() for j in range(n_new))
        lifted = lift_datum(datum, unit)
        roundtrip = kodaira_spencer(lifted) == unit
        fails_at = [j for j in range(n_new) if not is_j_special(lifted, j, branches[j])]
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
