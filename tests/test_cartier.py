"""The Cartier operator, Kummer covers, eigenforms and local expansions."""

import dataclasses
import itertools
from dataclasses import dataclass

import oracles
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    LaurentSeries,
    RationalFunction,
    cartier_of_linear_powers,
    cartier_rational,
    cartier_rational_by_powering,
    expand_combination,
    frobenius_cofactor,
    from_rational,
    is_cartier_fixed_by_rationals,
    level_constant_by_full_product,
    multiplicity_at,
    omega_form,
    ord_at_critical,
    phi_basis,
    series_at,
    step_factor,
    to_rational,
)

from defdatum import cartier, deform, search, sigdata
from defdatum.algebra import (
    _TABLE_CAP,
    INF,
    FieldDescriptor,
    Poly,
)
from defdatum.cartier import (
    BranchFraction,
    FormCombination,
    KummerCover,
    cartier_combination,
    cartier_fraction,
    cartier_poly,
    is_cartier_fixed,
    is_fixed_by_constants,
    level_constant,
    omega_combination,
    epsilon_form,
    ord_single_form,
    phi_coefficients,
)

F3 = FieldDescriptor.get(3, 1)
F5 = FieldDescriptor.get(5, 1)
F9 = FieldDescriptor.get(3, 2)


def rat(descriptor, num_ints, den_ints):
    return RationalFunction(
        Poly.from_ints(descriptor, num_ints), Poly.from_ints(descriptor, den_ints)
    )


def branch(cover, f):
    """The rational function f as a fraction over the cover's branch points."""
    return from_rational(cover.taus, f)


def expand(cover, hs, center, upto):
    return expand_combination(cover, hs, center, upto, cartier.branch_root(cover, center))


def rationals(descriptor, max_deg=3):
    table = list(descriptor.elements())
    coeff = st.integers(0, descriptor.order - 1).map(lambda k: table[k])
    polys = st.lists(coeff, min_size=1, max_size=max_deg + 1).map(
        lambda cs: Poly(descriptor, cs)
    )
    return st.tuples(polys, polys.filter(lambda q: not q.is_zero())).map(
        lambda ab: RationalFunction(ab[0], ab[1])
    )


def test_cartier_rational_monomials():
    x = Poly.x(F3)
    one = Poly.constant(F3, 1)
    # C(x^n dx) = x^{(n+1)/p - 1} when p | n + 1, else 0
    assert cartier_rational(RationalFunction(x**2, one)) == RationalFunction(one, one)
    assert cartier_rational(RationalFunction(one, one)).is_zero()
    assert cartier_rational(RationalFunction(x, one)).is_zero()
    assert cartier_rational(RationalFunction(x**5, one)) == RationalFunction(x, one)


def test_cartier_rational_hand_value():
    # C(dx / (x^2 (x-1)^2)) = dx / (x (x-1)) over F_3
    f = rat(F3, [1], [0, 0, 1]) * rat(F3, [1], [1, 1, 1])  # 1/(x^2 (x-1)^2)
    expected = rat(F3, [1], [0, 2, 1])  # 1/(x^2 - x)
    assert cartier_rational(f) == expected


ORACLE_FIELDS = [
    FieldDescriptor.get(p, r) for p, r in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (5, 2))
]


@settings(max_examples=150)
@given(st.sampled_from(ORACLE_FIELDS).flatmap(lambda d: rationals(d, max_deg=6)))
def test_cartier_rational_matches_the_powering_oracle(f):
    assert cartier_rational(f) == cartier_rational_by_powering(f)


@settings(max_examples=60)
@given(
    st.sampled_from(ORACLE_FIELDS).flatmap(
        lambda d: rationals(d, max_deg=6).map(lambda f: f.denominator)
    )
)
def test_frobenius_cofactor_is_the_p_minus_1_power(g):
    assert frobenius_cofactor(g) == g ** (g.descriptor.p - 1)


def test_cartier_rational_matches_the_powering_oracle_above_the_table_cap():
    # F_{2^17} elements are polynomials: Frobenius is a power, not a table
    d = FieldDescriptor.get(2, 17)
    assert d.order > _TABLE_CAP
    a, b = d.element([1, 1, 0, 1]), d.element([0, 1, 1])
    x = Poly.x(d)
    f = RationalFunction(x * a + b, x**3 + x * b + a)
    assert cartier_rational(f) == cartier_rational_by_powering(f)
    assert not cartier_rational(f).is_zero()


# F_2, F_3, F_5, F_7, F_4, F_9 and F_25
FRACTION_FIELDS = [
    FieldDescriptor.get(p, r) for p, r in ((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 2))
]


@st.composite
def shifted_fractions(draw):
    """A fraction P / prod (x - tau_j)^{e_j} over one to four points, e_j in
    0..2p+1, P sometimes sharing factors x - tau_j with the denominator, and
    shifts in -2p-1..2p+1."""
    d = draw(st.sampled_from(FRACTION_FIELDS))
    p = d.p
    table = list(d.elements())
    taus = tuple(draw(st.lists(st.sampled_from(table), min_size=1, max_size=4, unique=True)))
    n = len(taus)
    exps = draw(st.lists(st.integers(0, 2 * p + 1), min_size=n, max_size=n))
    shift = draw(st.lists(st.integers(-2 * p - 1, 2 * p + 1), min_size=n, max_size=n))
    num = Poly(d, draw(st.lists(st.sampled_from(table), max_size=4)))
    common = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    num = num * cartier._product_of_linear_powers(d, taus, common)
    return BranchFraction(taus, num, exps), shift


@settings(max_examples=60, deadline=None)
@given(shifted_fractions())
def test_cartier_fraction_matches_the_rational_oracle(case):
    f, shift = case
    d = f.num.descriptor
    step = RationalFunction(
        cartier._product_of_linear_powers(d, f.taus, shift),
        cartier._product_of_linear_powers(d, f.taus, [-e for e in shift]),
    )
    image = cartier_fraction(f, shift)
    assert image.taus == f.taus
    assert to_rational(image) == cartier_rational(to_rational(f) * step)


# F_4, F_9, F_25, F_27, F_49, F_11, F_13 and F_169
SPLIT_FIELDS = [
    FieldDescriptor.get(p, r)
    for p, r in ((2, 2), (3, 2), (5, 2), (3, 3), (7, 2), (11, 1), (13, 1), (13, 2))
]
F13 = FieldDescriptor.get(13, 1)


def linear(d, tau):
    return Poly(d, [-tau, d.one()])


def product_multiplied_out(d, taus, exponents):
    u = Poly.constant(d, 1)
    for tau, e in zip(taus, exponents):
        u = u * linear(d, tau) ** e
    return u


@st.composite
def linear_powers(draw, signed=False):
    """A field, one to three points (0 among them when drawn) and their
    exponents: 0..3p with multiples of p and p - 1 favoured, or -3..p."""
    d = draw(st.sampled_from(SPLIT_FIELDS))
    p = d.p
    taus = draw(st.lists(st.sampled_from(list(d.elements())), min_size=1, max_size=3))
    if signed:
        exponent = st.integers(-3, p)
    else:
        exponent = st.one_of(
            st.sampled_from([0, p - 1, p, 2 * p - 1, 2 * p, 3 * p]), st.integers(0, 3 * p)
        )
    exponents = draw(st.lists(exponent, min_size=len(taus), max_size=len(taus)))
    return d, taus, exponents


@settings(max_examples=120, deadline=None)
@given(linear_powers())
@example((F13, [F13.zero(), F13.element(5)], [12, 25]))
@example((SPLIT_FIELDS[-1], [SPLIT_FIELDS[-1].element([3, 1])], [38]))
def test_cartier_of_linear_powers_matches_the_full_product(case):
    d, taus, exponents = case
    expected = cartier_poly(product_multiplied_out(d, taus, exponents))
    assert cartier_of_linear_powers(d, taus, exponents) == expected


@settings(max_examples=80, deadline=None)
@given(linear_powers(signed=True))
def test_cartier_of_linear_powers_matches_the_cofactor_path(case):
    # the candidate check's u = N g^(p-1), with g^(p-1) as g^p // g
    d, taus, es = case
    p = d.p
    num = cartier._product_of_linear_powers(d, taus, es)
    den = cartier._product_of_linear_powers(d, taus, [-e for e in es])
    split = [e if e > 0 else (p - 1) * -e for e in es]
    assert cartier_of_linear_powers(d, taus, split) == cartier_poly(num * frobenius_cofactor(den))


@pytest.mark.parametrize("d", SPLIT_FIELDS, ids=repr)
def test_cartier_of_linear_powers_is_zero_when_every_remainder_is(d):
    # u = H^p, and C(H^p dx) = H C(dx) = 0
    p = d.p
    taus = [d.zero(), d.one(), d.generator() + d.one()]
    exponents = [p, 2 * p, 3 * p]
    assert cartier_poly(product_multiplied_out(d, taus, exponents)).is_zero()
    assert cartier_of_linear_powers(d, taus, exponents).is_zero()
    assert cartier_of_linear_powers(d, taus, [0, 0, 0]).is_zero()


def test_cartier_of_linear_powers_above_the_table_cap():
    d = FieldDescriptor.get(2, 17)
    assert d.order > _TABLE_CAP
    taus = [d.zero(), d.element([1, 1, 0, 1]), d.element([0, 1, 1])]
    for exponents in ([3, 4, 5], [1, 0, 6], [2, 2, 2]):
        expected = cartier_poly(product_multiplied_out(d, taus, exponents))
        assert cartier_of_linear_powers(d, taus, exponents) == expected
    assert not cartier_of_linear_powers(d, taus, [3, 4, 5]).is_zero()


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(SPLIT_FIELDS).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.sampled_from(list(d.elements())),
            st.integers(0, 3 * d.p),
        )
    )
)
def test_linear_power_matches_repeated_multiplication(case):
    d, tau, e = case
    expected = Poly.constant(d, 1)
    for _ in range(e):
        expected = expected * linear(d, tau)
    assert cartier._linear_power(d, tau, e) == expected


@pytest.mark.parametrize("d", SPLIT_FIELDS, ids=repr)
def test_linear_power_at_p_is_frobenius(d):
    # (x - tau)^p = x^p - tau^p: every middle binomial vanishes mod p
    p = d.p
    for tau in (d.zero(), d.one(), d.generator()):
        expected = Poly(d, [-tau.frobenius()] + [d.zero()] * (p - 1) + [d.one()])
        assert cartier._linear_power(d, tau, p) == expected


def test_cartier_fixes_dlog_and_kills_dx():
    f = rat(F3, [1], [0, 1])  # dx/x
    assert cartier_rational(f) == f
    # on the m = 1 cover a form is a plain rational differential
    cover = trivial_cover(F3, (F3.zero(),))
    assert is_cartier_fixed(FormCombination(cover, (branch(cover, f),)))


@settings(max_examples=60)
@given(rationals(F9), rationals(F9))
def test_cartier_semilinearity(f, g):
    # C(f^p g dx) = f C(g dx)
    p = 3
    lhs = cartier_rational(f**p * g)
    rhs = f * cartier_rational(g)
    assert lhs == rhs


@settings(max_examples=60)
@given(rationals(F5))
def test_cartier_kills_exact_forms(f):
    assert cartier_rational(f.derivative()).is_zero()


@settings(max_examples=60)
@given(rationals(F5))
def test_cartier_fixes_logarithmic_forms(f):
    if f.is_zero():
        return
    dlog = f.derivative() / f
    assert cartier_rational(dlog) == dlog


@settings(max_examples=40)
@given(rationals(F5), rationals(F5))
def test_cartier_is_additive(f, g):
    assert cartier_rational(f + g) == cartier_rational(f) + cartier_rational(g)


def two_level_cover(tau_new=2):
    # z^4 = x^3 (x - tau)  over F_3, wild point at infinity
    return KummerCover(
        F3,
        4,
        (F3.element(0), F3.element(1), F3.element(tau_new)),
        ((3, 1), (0, 0), (1, 3)),
        (0, 0),
    )


def test_cover_validation():
    with pytest.raises(ValueError):  # duplicate branch points
        KummerCover(F3, 2, (F3.element(0), F3.element(0)), ((1,), (1,)), (0,))
    with pytest.raises(ValueError):  # (1, 2) is not a x3-orbit mod 4
        KummerCover(F3, 4, (F3.element(0), F3.element(1)), ((1, 2), (3, 1)), (0, 0))
    with pytest.raises(ValueError):  # level sums 1 mod 2
        KummerCover(F3, 2, (F3.element(0),), ((1,),), None)
    with pytest.raises(ValueError):  # orbit length != s
        KummerCover(F3, 4, (F3.element(0), F3.element(1)), ((1,), (3,)), (0,))


def test_cover_local_data():
    cover = two_level_cover()
    assert cover.s == 2
    assert cover.is_pure()
    assert cover.m_at(0) == 4
    assert cover.m_at(2) == 4
    assert cover.m_at(INF) == 1
    assert cover.orbit_at(INF) == (0, 0)
    rad = cover.radicand(0)
    assert rad.degree == 4
    assert multiplicity_at(rad, F3.element(0)) == 3
    for level in range(cover.s):
        exponents = [orbit[level] for orbit in cover.orbits]
        assert cover.radicand(level) == product_multiplied_out(F3, cover.taus, exponents)


def test_step_factor_recursion():
    # z_{l} = z_{l-1}^p * step, so b^(l) = p b^(l-1) + m e
    cover = two_level_cover()
    for level in (0, 1):
        es = cover.step_exponents(level)
        for orbit, e in zip(cover.orbits, es):
            assert orbit[level] == 3 * orbit[level - 1] + 4 * e


def golden_datum():
    sig = sigdata.canonicalize(
        sigdata.Signature(
            3,
            2,
            (
                sigdata.SigPoint("B0", 0, 1),
                sigdata.SigPoint("B0", 0, 1),
                sigdata.SigPoint("B0", 0, 0),
            ),
        )
    )
    data = search.search_field(sig, F3)
    assert len(data) == 1
    return data[0]


def test_golden_omega_is_cartier_fixed():
    datum = golden_datum()
    omega = omega_form(datum, 0)
    # dx / (x (x - 1)) times z
    assert tuple(to_rational(h) for h in omega.hs) == (rat(F3, [1], [0, 2, 1]),)
    assert is_cartier_fixed(omega)
    image = cartier_combination(omega)
    assert image.hs == omega.hs


def test_combination_linearity_under_cartier():
    datum = golden_datum()
    combo = omega_combination(datum)
    doubled = combo + combo
    assert cartier_combination(doubled) == doubled  # C(2 w) = 2 C(w) for 2 = (-1)^p


def test_phi_basis_golden():
    datum = golden_datum()
    phis = phi_basis(datum)
    assert len(phis) == 1
    assert is_cartier_fixed(phis[0])


def two_level_datum():
    # z^4 = x^3 (x - tau) over F_3: the one datum of its signature, two levels
    sig = sigdata.canonicalize(
        sigdata.Signature(
            3,
            4,
            (
                sigdata.SigPoint("B0", 0, 3),
                sigdata.SigPoint("B0", 0, 0),
                sigdata.SigPoint("B0", 0, 0),
                sigdata.SigPoint("new", 1, 1),
            ),
        )
    )
    data = search.search_field(sig, F3)
    assert len(data) == 1
    return data[0]


def test_phi_basis_two_levels():
    phis = phi_basis(two_level_datum())
    assert len(phis) == 2
    assert all(is_cartier_fixed(ph) for ph in phis)


def test_phi_basis_is_built_from_phi_coefficients():
    for datum in (golden_datum(), two_level_datum()):
        rows, field = phi_coefficients(datum)
        assert field == datum.field_with_roots()
        phis = phi_basis(datum)
        assert len(rows) == len(phis) == datum.signature.s
        q = datum.embedded(field).q_poly
        for row, phi in zip(rows, phis):
            assert tuple(to_rational(h) for h in phi.hs) == tuple(
                RationalFunction(Poly.constant(field, c), q) for c in row
            )


def level_image_by_cartier_rational(cover, level):
    """C((1/Q) z_{level+1} dx) Q / z_level dx, a normalized rational function."""
    d = cover.descriptor
    q = Poly.x(d) * (Poly.x(d) - Poly.constant(d, 1))
    inv_q = RationalFunction(Poly.constant(d, 1), q)
    return cartier_rational(inv_q * step_factor(cover, (level + 1) % cover.s)) * q


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_level_constant_matches_cartier_rational_on_every_tau(p):
    # m in {2, 3, 4}, every one-new-point signature, every tau of F_p,
    # every level: kappa is the image times Q when that is a nonzero
    # constant, and 0 for a zero image or one that is no constant
    d = FieldDescriptor.get(p, 1)
    outcomes = set()
    for m in (2, 3, 4):
        sigs = [sig for sig in sigdata.enumerate_signatures(p, m, 4) if len(sig.new_indices()) == 1]
        assert sigs
        for sig in sigs:
            for tau in d.elements():
                if tau.is_zero() or tau == d.one():
                    continue
                cover = search.build_cover(sig, d, (tau,))
                for level in range(cover.s):
                    image = level_image_by_cartier_rational(cover, level)
                    if image.is_zero():
                        expected, outcome = d.zero(), "zero"
                    elif image.numerator.degree == 0 and image.denominator.degree == 0:
                        expected, outcome = image.numerator.coeffs[0], "constant"
                    else:
                        expected, outcome = d.zero(), "other"
                    assert level_constant(cover, level) == expected
                    outcomes.add(outcome)
    assert {"other", "constant"} <= outcomes


def cover_with_step_exponents(d, taus, exponents):
    """A one-level cover with m = max(p - 1, 1) whose step exponents are
    ``exponents``: e = (b - p b)/m = -b, so b = -e, any sign."""
    m = max(d.p - 1, 1)
    return KummerCover(
        d, m, tuple(taus), tuple((-e,) for e in exponents), (sum(exponents) % m,)
    )


def level_constant_on_every_exponent_triple(d, tau, exponents):
    """(level_constant, oracle) on the covers over 0, 1, tau with step
    exponents in ``exponents``, and the number of constants found."""
    hits = 0
    for es in itertools.product(exponents, repeat=3):
        cover = cover_with_step_exponents(d, (d.zero(), d.one(), tau), es)
        expected = level_constant_by_full_product(cover, 0)
        assert level_constant(cover, 0) == expected, es
        hits += bool(expected)
    return hits


@pytest.mark.parametrize("r", [1, 2])
def test_level_constant_matches_the_full_product_on_every_small_exponent(r):
    # every step exponent from -4 to 7 at 0, 1 and a third point, over F_3
    # and F_9: no pole at 0 or 1 (Q does not divide g), e_j > 0, H not
    # dividing g/Q (q_j > t_j) and S of degree 0 to 2
    d = FieldDescriptor.get(3, r)
    tau = d.generator() if r > 1 else d.element(2)
    assert level_constant_on_every_exponent_triple(d, tau, range(-4, 8)) >= 19


@st.composite
def hand_made_covers(draw):
    """A one-level cover over 0, 1 and up to two more points of a field
    with q <= 125, with step exponents of either sign, p (p - 1) and
    multiples of p favoured."""
    d = draw(st.sampled_from([*SPLIT_FIELDS[:5], F5, FieldDescriptor.get(5, 3)]))
    p = d.p
    others = [t for t in d.elements() if not t.is_zero() and t != d.one()]
    extra = draw(st.lists(st.sampled_from(others), max_size=2, unique=True))
    exponent = st.one_of(
        st.integers(-p - 1, 2 * p + 1), st.sampled_from([-p, 0, 1 - p, p, p * (p - 1)])
    )
    es = draw(st.lists(exponent, min_size=2 + len(extra), max_size=2 + len(extra)))
    return cover_with_step_exponents(d, (d.zero(), d.one(), *extra), es)


@settings(max_examples=150, deadline=None)
@given(hand_made_covers())
def test_level_constant_matches_the_full_product_on_hand_made_covers(cover):
    d = cover.descriptor
    expected = level_constant_by_full_product(cover, 0)
    assert level_constant(cover, 0) == expected
    image = level_image_by_cartier_rational(cover, 0)
    constant = image.numerator.degree == 0 and image.denominator.degree == 0
    assert expected == (image.numerator.coeffs[0] if constant else d.zero())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fixedness_by_constants_matches_is_cartier_fixed_on_random_rows(data):
    # rows sum_i c_i (1/Q) z_i dx over the two-level datum's cover, over an
    # extension of it, or with its new point moved (some level has no
    # constant there), entries drawn with zeros and F_p-multiples of eps
    datum = two_level_datum()
    field = data.draw(st.sampled_from([datum.descriptor, F9, FieldDescriptor.get(3, 4)]))
    big = datum.embedded(field)
    if field != datum.descriptor and data.draw(st.booleans()):
        moved = [t for t in field.elements() if t not in (field.zero(), field.one(), *big.tau)]
        big = dataclasses.replace(big, tau=(data.draw(st.sampled_from(moved)),))
    elements = list(field.elements())
    entry = st.one_of(
        st.just(field.zero()),
        st.sampled_from(elements),
        st.sampled_from(range(big.signature.s)).flatmap(
            lambda i: st.sampled_from([big.epsilon[i] * c for c in (1, 2)])
        ),
    )
    row = data.draw(st.lists(entry, min_size=big.signature.s, max_size=big.signature.s))
    kappas = [level_constant(big.cover, i) for i in range(big.signature.s)]
    q = big.q_poly
    combo = FormCombination(
        big.cover, tuple(branch(big.cover, RationalFunction(Poly.constant(field, c), q)) for c in row)
    )
    assert is_fixed_by_constants(row, kappas) == is_cartier_fixed(combo)
    assert is_cartier_fixed(combo) == is_cartier_fixed_by_rationals(combo)


def trivial_cover(descriptor, taus):
    # m = 1: z = 1 identically, forms are plain rational differentials
    return KummerCover(descriptor, 1, taus, tuple((0,) for _ in taus), None)


# 1 + x^2 = (x - 2)(x - 3) and 1 + x = x - 4 over F_5: every pole of the
# forms below is a branch point of this cover, expanded at tau_0 = 2
TRIVIAL_F5 = trivial_cover(F5, tuple(F5.element(t) for t in (2, 3, 4)))


def test_expansion_matches_series_at():
    tau = F5.element(2)
    cover = TRIVIAL_F5
    h = rat(F5, [1, 3], [1, 0, 1])
    ser = expand(cover, (branch(cover, h),), 0, 6)
    oracle = series_at(h, tau, 6)
    for n in range(0, 7):
        assert ser.coeff(n) == oracle.coeff(n)
    assert epsilon_form(FormCombination(cover, (branch(cover, h),)), 0, {}).is_zero()


def test_a_pole_away_from_the_branch_points_is_refused():
    with pytest.raises(ValueError, match="pole away from the branch points"):
        branch(trivial_cover(F5, (F5.element(2),)), rat(F5, [1], [1, 0, 1]))


def test_expansion_dual_channel_is_the_directional_derivative():
    tau = F5.element(2)
    delta = F5.element(3)
    cover = TRIVIAL_F5
    h = rat(F5, [1, 3], [1, 0, 1])
    ser = expand(cover, (branch(cover, h),), 0, 5)
    eps = epsilon_form(FormCombination(cover, (branch(cover, h),)), 0, {0: delta})
    eps_ser = expand(cover, eps.hs, 0, 5)
    base_oracle = series_at(h, tau, 6)
    deriv_oracle = series_at(h.derivative(), tau, 6)
    for n in range(0, 6):
        assert ser.coeff(n) == base_oracle.coeff(n)
        assert eps_ser.coeff(n) == delta * deriv_oracle.coeff(n)


def test_expansion_theta_channel_is_additive():
    tau = F5.element(2)
    cover = TRIVIAL_F5
    h = rat(F5, [1, 3], [1, 0, 1])
    theta = rat(F5, [2], [1, 1])
    eps = epsilon_form(FormCombination(cover, (branch(cover, h),)), 0, {}, (branch(cover, theta),))
    eps_ser = expand(cover, eps.hs, 0, 5)
    oracle = series_at(theta, tau, 6)
    for n in range(0, 6):
        assert eps_ser.coeff(n) == oracle.coeff(n)


def test_expansion_of_the_zero_form_is_refused():
    cover = two_level_cover()
    zero = branch(cover, rat(F3, [0], [1]))
    with pytest.raises(ValueError):
        expand(cover, (zero, zero), 0, 4)


@pytest.mark.parametrize("center", [0, 1, 2, INF])
@pytest.mark.parametrize("level", [0, 1])
def test_honest_order_matches_closed_formula(center, level):
    cover = two_level_cover()
    h = branch(cover, rat(F3, [1], [0, 2, 1]))  # 1/(x(x-1))
    zero = branch(cover, rat(F3, [0], [1]))
    form = FormCombination(cover, (h, zero) if level == 0 else (zero, h))
    assert ord_at_critical(form, center) == ord_single_form(cover, level, h, center)


def test_order_requires_a_nonzero_form():
    cover = two_level_cover()
    zero = branch(cover, rat(F3, [0], [1]))
    with pytest.raises(ValueError):
        ord_at_critical(FormCombination(cover, (zero, zero)), 0)


def test_expansion_extends_the_field_when_needed():
    # radicand leading constant 2 at tau = 2 is not a 4th power in F_3
    cover = two_level_cover()
    hs = (branch(cover, rat(F3, [1], [1])), branch(cover, rat(F3, [0], [1])))
    ser = expand(cover, hs, 2, 4)
    assert ser.descriptor.p == 3
    assert ser.descriptor.r > 1


# ---------------------------------------------------------------------------
# fractions over the branch points against normalized rational functions


@st.composite
def branch_fractions(draw, count=2):
    """``count`` fractions over up to four distinct points of F_5, F_7 or
    F_9, numerators of degree <= 3 and exponents 0..3, some of them
    written with a common factor x - tau_k (not reduced)."""
    d = draw(st.sampled_from([F5, FieldDescriptor.get(7, 1), F9]))
    table = list(d.elements())
    taus = tuple(draw(st.lists(st.sampled_from(table), min_size=1, max_size=4, unique=True)))
    out = []
    for _ in range(count):
        num = Poly(d, draw(st.lists(st.sampled_from(table), max_size=4)))
        exps = draw(st.lists(st.integers(0, 3), min_size=len(taus), max_size=len(taus)))
        f = BranchFraction(taus, num, exps)
        k = draw(st.sampled_from(range(len(taus))))
        if draw(st.booleans()):
            common = [int(j == k) for j in range(len(taus))]
            f = f * BranchFraction(taus, cartier._linear_power(d, taus[k], 1), common)
        out.append(f)
    return out


@settings(max_examples=60, deadline=None)
@given(branch_fractions())
def test_branch_fraction_arithmetic_matches_rational_functions(fs):
    a, b = fs
    ra, rb = to_rational(a), to_rational(b)
    d = a.num.descriptor
    c = d.generator() + d.one()
    assert to_rational(a + b) == ra + rb
    assert to_rational(a * b) == ra * rb
    assert to_rational(a * c) == ra * c
    assert to_rational(a.derivative()) == ra.derivative()
    assert (a == b) == (ra == rb)
    assert a == from_rational(a.taus, ra)
    for k in range(len(a.taus)):
        assert to_rational(a.reduced_at(k)) == ra
    big = FieldDescriptor.get(d.p, 2 * d.r)
    assert to_rational(a.embed(big, tuple(t.embed(big) for t in a.taus))) == ra.embed(big)


@settings(max_examples=60, deadline=None)
@given(branch_fractions(count=1))
def test_branch_fraction_order_and_residue_match_the_expansion(fs):
    (a,) = fs
    ra = to_rational(a)
    assume(not a.is_zero())
    assert a.order(INF) == ra.ord_at(INF)
    for k, tau in enumerate(a.taus):
        assert a.order(k) == ra.ord_at(tau)
        if a.order(k) < -1:
            with pytest.raises(ValueError):
                a.simple_residue(k)
        else:
            upto = max(-1, a.order(k))
            assert a.simple_residue(k) == series_at(ra, tau, upto).coeff(-1)


# ---------------------------------------------------------------------------
# the dual-number reference: expansions over k[eps] computed directly, with
# the branch points moved and the coefficients lifted in the local parameter

_BIG = 10**9


def _zero_series(descriptor):
    return LaurentSeries(descriptor, _BIG, [], _BIG - 1)


@dataclass(frozen=True)
class DSer:
    """A Laurent series over the dual numbers: base + epsilon * eps."""

    base: LaurentSeries
    eps: LaurentSeries

    @property
    def descriptor(self):
        return self.base.descriptor

    def __add__(self, other):
        return DSer(self.base + other.base, self.eps + other.eps)

    def __sub__(self, other):
        return DSer(self.base - other.base, self.eps - other.eps)

    def __mul__(self, other):
        return DSer(
            self.base * other.base, self.base * other.eps + self.eps * other.base
        )

    def inverse(self):
        ib = self.base.inverse()
        return DSer(ib, -(ib * ib * self.eps))

    def power(self, e):
        if e < 0:
            return self.inverse().power(-e)
        result = _dual_monomial(self.descriptor, 1, 0, max(0, self.base.trunc - self.base.start) + 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def nth_root(self, m, lead_root):
        y = self.base.nth_root(m, lead_root)
        # (y + eps z)^m = base + eps * e  =>  z = e * y / (m * base)
        z = (self.eps * y * self.base.inverse()).scale(self.descriptor.element(m).inverse())
        return DSer(y, z)

    def window(self):
        return (
            min(self.base.start, self.eps.start),
            min(self.base.trunc, self.eps.trunc),
        )


def _const_dser(descriptor, value, eps_value, length):
    base = LaurentSeries(
        descriptor, 0, [descriptor.element(value)] + [descriptor.zero()] * (length - 1)
    )
    if eps_value is None or descriptor.element(eps_value).is_zero():
        return DSer(base, _zero_series(descriptor))
    eps = LaurentSeries(
        descriptor, 0, [descriptor.element(eps_value)] + [descriptor.zero()] * (length - 1)
    )
    return DSer(base, eps)


def _dual_monomial(descriptor, c, k, length):
    coeffs = [descriptor.element(c)] + [descriptor.zero()] * (length - 1)
    return DSer(LaurentSeries(descriptor, k, coeffs), _zero_series(descriptor))


def _eval_rational_dser(f, x):
    def horner(poly):
        acc = None
        for c in reversed(poly.coeffs):
            cd = _const_dser(poly.descriptor, c, None, x.base.trunc - x.base.start + 1)
            acc = cd if acc is None else acc * x + cd
        if acc is None:
            zero = _zero_series(poly.descriptor)
            return DSer(zero, zero)
        return acc

    return horner(f.numerator) * horner(f.denominator).inverse()


def dual_expand(cover, hs, center, length, delta, eps_hs):
    """sum_l (h_l + eps theta_l) z_l dx at ``center`` over k[eps], from
    series of ``length`` terms, with x = tau_c + eps delta_c + t^{m_c} and
    every factor x - tau_k - eps delta_k expanded as it stands."""
    m = cover.m
    mj = cover.m_at(center)
    lead = cover.descriptor.one()
    if center is not INF:
        for k, (tau_k, orbit) in enumerate(zip(cover.taus, cover.orbits)):
            if k != center:
                lead = lead * (cover.taus[center] - tau_k) ** orbit[0]
    root, desc = cartier.nth_root_with_extension(lead, m)
    if desc != cover.descriptor:
        cover = cover.embed(desc)
        hs = tuple(h.embed(desc) for h in hs)
        eps_hs = tuple(h.embed(desc) for h in eps_hs) if eps_hs else None
        delta = {k: v.embed(desc) for k, v in delta.items()}
    if center is INF:
        x = _dual_monomial(desc, 1, -mj, length)
        dx = DSer(x.base.derivative(), x.eps.derivative())
    else:
        x = _const_dser(desc, cover.taus[center], delta.get(center), length)
        x = x + _dual_monomial(desc, 1, mj, length - mj)
        dx = _dual_monomial(desc, mj, mj - 1, length)
    factors = [x - _const_dser(desc, t, delta.get(k), length) for k, t in enumerate(cover.taus)]
    rad = None
    for fk, orbit in zip(factors, cover.orbits):
        term = fk.power(orbit[0])
        rad = term if rad is None else rad * term
    zs = [rad.nth_root(m, root)]
    for level in range(1, cover.s):
        z = zs[-1].power(desc.p)
        for fk, e in zip(factors, cover.step_exponents(level)):
            if e:
                z = z * fk.power(e)
        zs.append(z)
    total = None
    for level in range(cover.s):
        coeff = _eval_rational_dser(hs[level], x)
        if eps_hs is not None and not eps_hs[level].is_zero():
            th = _eval_rational_dser(eps_hs[level], x)
            coeff = DSer(coeff.base, coeff.eps + th.base)
        term = coeff * zs[level] * dx
        total = term if total is None else total + term
    return total


# ---------------------------------------------------------------------------
# window sizing: the valuation rule against the old heuristic windows


def heuristic_window_expansion(cover, hs, center, upto, delta=None, eps_hs=None):
    """Oracle: the dual-number reference with the old sizing, upto +
    (maxdeg + p s + 6)(m + 1) + 8 coefficients, doubled until the window
    reaches upto."""
    fs = [f for f in (*hs, *(eps_hs or ())) if not f.is_zero()]
    maxdeg = max((f.numerator.degree + f.denominator.degree for f in fs), default=0)
    length = upto + (maxdeg + cover.descriptor.p * cover.s + 6) * (cover.m + 1) + 8
    while True:
        ser = dual_expand(cover, hs, center, length, delta or {}, eps_hs)
        if ser.window()[1] >= upto:
            return ser
        length *= 2


EXPANSION_COVERS = [
    # z^2 = x (x - 2) over F_5, unramified at infinity
    KummerCover(F5, 2, tuple(F5.element(t) for t in (0, 1, 2)), ((1,), (0,), (1,)), (0,)),
    # z^2 = x (x - 1) (x - 2) over F_5, ramified at infinity
    KummerCover(F5, 2, tuple(F5.element(t) for t in (0, 1, 2)), ((1,), (1,), (1,)), (1,)),
    # z^4 = x^3 (x - 2) over F_3, two levels, wild point at infinity
    two_level_cover(),
    # z^4 = x (x - 1) (x - 2) over F_3, two levels, ramified at infinity
    KummerCover(F3, 4, tuple(F3.element(t) for t in (0, 1, 2)), ((1, 3),) * 3, (1, 3)),
]


def branch_rationals(cover, max_deg=2):
    """Rational functions of degree <= max_deg whose poles are branch points."""
    d = cover.descriptor
    table = list(d.elements())
    nums = st.lists(st.sampled_from(table), min_size=1, max_size=max_deg + 1)
    exps = st.lists(
        st.integers(0, max_deg), min_size=len(cover.taus), max_size=len(cover.taus)
    ).filter(lambda es: sum(es) <= max_deg)
    return st.tuples(nums, exps).map(
        lambda ne: to_rational(BranchFraction(cover.taus, Poly(d, ne[0]), ne[1]))
    )


@st.composite
def expansion_cases(draw):
    cover = draw(st.sampled_from(EXPANSION_COVERS))
    d = cover.descriptor
    levels = st.tuples(*[branch_rationals(cover)] * cover.s)
    hs = draw(levels)
    eps_hs = draw(st.none() | levels)
    center = draw(st.sampled_from([0, 1, 2, INF]))
    delta = None
    if draw(st.booleans()):
        moved = draw(st.sampled_from([0, 1, 2] + [center] * (center is not INF)))
        delta = {moved: d.element(draw(st.integers(1, d.order - 1)))}
    return cover, hs, center, delta, eps_hs, draw(st.integers(0, 6))


@settings(max_examples=60, deadline=None)
@given(expansion_cases())
# a moving center at tau = 0 with a pole there: the derived form's
# delta_c h' starts m_c below the base
@example((EXPANSION_COVERS[0], (rat(F5, [1], [0, 1]),), 0, {0: F5.one()}, None, 0))
def test_valuation_window_matches_heuristic_window(case):
    # both channels through upto: the base expansion and the expansion of
    # the derived form, against the dual-number reference
    cover, hs, center, delta, eps_hs, extra = case
    branch_hs = tuple(branch(cover, h) for h in hs)
    branch_eps = tuple(branch(cover, h) for h in eps_hs) if eps_hs else None
    orders = oracles._term_orders(cover, branch_hs, center) + oracles._term_orders(
        cover, branch_eps or (), center
    )
    assume(orders)
    upto = min(orders) + extra
    oracle = heuristic_window_expansion(cover, hs, center, upto, delta, eps_hs)
    combo = FormCombination(cover, branch_hs)
    eps = epsilon_form(combo, center, delta or {}, branch_eps)
    for form, channel in ((combo, oracle.base), (eps, oracle.eps)):
        if form.is_zero():
            assert all(not channel.coeff(n) for n in range(channel.start, upto + 1))
            continue
        ser = expand(cover, form.hs, center, upto)
        assert ser.descriptor == oracle.descriptor
        assert ser.window()[1] >= upto
        for n in range(min(ser.start, channel.start), upto + 1):
            assert ser.coeff(n) == channel.coeff(n)


@st.composite
def branch_supported_combinations(draw):
    # poles only at branch points, so the tie case's bound applies
    cover = draw(st.sampled_from(EXPANSION_COVERS))
    d = cover.descriptor
    table = list(d.elements())
    x = Poly.x(d)
    hs = []
    for _ in range(cover.s):
        num = Poly(d, draw(st.lists(st.sampled_from(table), min_size=1, max_size=3)))
        den = Poly.constant(d, 1)
        for tau in cover.taus:
            den = den * (x - Poly.constant(d, tau)) ** draw(st.integers(0, 2))
        hs.append(branch(cover, RationalFunction(num, den)))
    return FormCombination(cover, tuple(hs)), draw(st.sampled_from([0, 1, 2, INF]))


@settings(max_examples=60, deadline=None)
@given(branch_supported_combinations())
# the two terms cancel at their common order -2 at infinity: the order, -1,
# is read only because the bound counts the terms' poles at 0 and 2
@example((FormCombination(two_level_cover(), tuple(
    branch(two_level_cover(), h) for h in (rat(F3, [2, 2], [0, 0, 1]), rat(F3, [2, 1], [0, 1, 1]))
)), INF))
def test_order_matches_wide_expansion(case):
    # distinct closed-form orders give the minimum with no expansion; ties
    # are read up to the Riemann-Hurwitz bound; both against the old window
    combo, center = case
    assume(not combo.is_zero())
    got = ord_at_critical(combo, center)
    upto = max(oracles._term_orders(combo.cover, combo.hs, center)) + 12
    wide = heuristic_window_expansion(
        combo.cover, tuple(to_rational(h) for h in combo.hs), center, upto
    )
    assert got == wide.base.order()


def test_each_expansion_is_built_once(monkeypatch):
    # one frame per expand_combination call, and none in a rigidity check,
    # which reads orders and leading coefficients in closed form
    calls = {"expand_combination": 0, "_expand": 0, "_order_bound": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in calls:
        counted(oracles, name)
    datum = two_level_datum()
    deform.rigidity_check(datum)  # moving centers, theta channels, two levels
    assert calls["_expand"] == 0
    # a branch constant that needs F_9
    cover = two_level_cover()
    hs = (branch(cover, rat(F3, [1], [1])), branch(cover, rat(F3, [0], [1])))
    oracles.expand_combination(cover, hs, 2, 4, cartier.branch_root(cover, 2))
    for ph in phi_basis(datum):
        for center in (0, 1, 2, INF):
            ord_at_critical(ph, center)
    assert calls["_order_bound"] > 0  # some orders tie and are expanded
    assert calls["expand_combination"] > 0
    assert calls["_expand"] == calls["expand_combination"]
