"""The Cartier operator, Kummer covers, eigenforms and local expansions."""

import dataclasses
from dataclasses import dataclass

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import cartier_rational_by_powering, series_at

from defdatum import cartier, deform, search, sigdata
from defdatum.algebra import (
    _TABLE_CAP,
    INF,
    FieldDescriptor,
    LaurentSeries,
    Poly,
    RationalFunction,
)
from defdatum.cartier import (
    FormCombination,
    KummerCover,
    cartier_combination,
    cartier_of_linear_powers,
    cartier_poly,
    cartier_rational,
    expand_combination,
    frobenius_cofactor,
    is_cartier_fixed,
    is_fixed_by_constants,
    level_constant,
    omega_combination,
    omega_form,
    ord_at_critical,
    epsilon_form,
    ord_single_form,
    phi_basis,
    phi_coefficients,
    powers_of_linear_factors,
)

F3 = FieldDescriptor.get(3, 1)
F5 = FieldDescriptor.get(5, 1)
F9 = FieldDescriptor.get(3, 2)


def rat(descriptor, num_ints, den_ints):
    return RationalFunction(
        Poly.from_ints(descriptor, num_ints), Poly.from_ints(descriptor, den_ints)
    )


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
    num, den = powers_of_linear_factors(d, taus, es)
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
    assert is_cartier_fixed(FormCombination(trivial_cover(F3, (F3.zero(),)), (f,)))


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
    assert rad.multiplicity_at(F3.element(0)) == 3
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
    assert omega.hs == (rat(F3, [1], [0, 2, 1]),)  # dx / (x (x - 1)) times z
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
            assert phi.hs == tuple(RationalFunction(Poly.constant(field, c), q) for c in row)


def level_image_by_cartier_rational(cover, level):
    """C((1/Q) z_{level+1} dx) Q / z_level dx, a normalized rational function."""
    d = cover.descriptor
    q = Poly.x(d) * (Poly.x(d) - Poly.constant(d, 1))
    inv_q = RationalFunction(Poly.constant(d, 1), q)
    return cartier_rational(inv_q * cover.step_factor((level + 1) % cover.s)) * q


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
    combo = FormCombination(
        big.cover, tuple(RationalFunction(Poly.constant(field, c), big.q_poly) for c in row)
    )
    assert is_fixed_by_constants(row, kappas) == is_cartier_fixed(combo)


def trivial_cover(descriptor, taus):
    # m = 1: z = 1 identically, forms are plain rational differentials
    return KummerCover(descriptor, 1, taus, tuple((0,) for _ in taus), None)


def test_expansion_matches_series_at():
    tau = F5.element(2)
    cover = trivial_cover(F5, (tau,))
    h = rat(F5, [1, 3], [1, 0, 1])
    ser = expand_combination(cover, (h,), 0, 6)
    oracle = series_at(h, tau, 6)
    for n in range(0, 7):
        assert ser.coeff(n) == oracle.coeff(n)
    assert epsilon_form(FormCombination(cover, (h,)), 0, {}).is_zero()


def test_expansion_dual_channel_is_the_directional_derivative():
    tau = F5.element(2)
    delta = F5.element(3)
    cover = trivial_cover(F5, (tau,))
    h = rat(F5, [1, 3], [1, 0, 1])
    ser = expand_combination(cover, (h,), 0, 5)
    eps = epsilon_form(FormCombination(cover, (h,)), 0, {0: delta})
    eps_ser = expand_combination(cover, eps.hs, 0, 5)
    base_oracle = series_at(h, tau, 6)
    deriv_oracle = series_at(h.derivative(), tau, 6)
    for n in range(0, 6):
        assert ser.coeff(n) == base_oracle.coeff(n)
        assert eps_ser.coeff(n) == delta * deriv_oracle.coeff(n)


def test_expansion_theta_channel_is_additive():
    tau = F5.element(2)
    cover = trivial_cover(F5, (tau,))
    h = rat(F5, [1, 3], [1, 0, 1])
    theta = rat(F5, [2], [1, 1])
    eps = epsilon_form(FormCombination(cover, (h,)), 0, {}, (theta,))
    eps_ser = expand_combination(cover, eps.hs, 0, 5)
    oracle = series_at(theta, tau, 6)
    for n in range(0, 6):
        assert eps_ser.coeff(n) == oracle.coeff(n)


def test_expansion_of_the_zero_form_is_refused():
    cover = two_level_cover()
    zero = rat(F3, [0], [1])
    with pytest.raises(ValueError):
        expand_combination(cover, (zero, zero), 0, 4)


@pytest.mark.parametrize("center", [0, 1, 2, INF])
@pytest.mark.parametrize("level", [0, 1])
def test_honest_order_matches_closed_formula(center, level):
    cover = two_level_cover()
    h = rat(F3, [1], [0, 2, 1])  # 1/(x(x-1))
    zero = rat(F3, [0], [1])
    form = FormCombination(cover, (h, zero) if level == 0 else (zero, h))
    assert ord_at_critical(form, center) == ord_single_form(cover, level, h, center)


def test_order_requires_a_nonzero_form():
    cover = two_level_cover()
    zero = rat(F3, [0], [1])
    with pytest.raises(ValueError):
        ord_at_critical(FormCombination(cover, (zero, zero)), 0)


def test_expansion_extends_the_field_when_needed():
    # radicand leading constant 2 at tau = 2 is not a 4th power in F_3
    cover = two_level_cover()
    h = rat(F3, [1], [1])
    ser = expand_combination(cover, (h, rat(F3, [0], [1])), 2, 4)
    assert ser.descriptor.p == 3
    assert ser.descriptor.r > 1


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


@st.composite
def expansion_cases(draw):
    cover = draw(st.sampled_from(EXPANSION_COVERS))
    d = cover.descriptor
    levels = st.tuples(*[rationals(d, max_deg=2)] * cover.s)
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
    orders = cartier._term_orders(cover, hs, center) + cartier._term_orders(
        cover, eps_hs or (), center
    )
    assume(orders)
    upto = min(orders) + extra
    oracle = heuristic_window_expansion(cover, hs, center, upto, delta, eps_hs)
    combo = FormCombination(cover, hs)
    eps = epsilon_form(combo, center, delta or {}, eps_hs)
    for form, channel in ((combo, oracle.base), (eps, oracle.eps)):
        if form.is_zero():
            assert all(not channel.coeff(n) for n in range(channel.start, upto + 1))
            continue
        ser = expand_combination(cover, form.hs, center, upto)
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
        hs.append(RationalFunction(num, den))
    return FormCombination(cover, tuple(hs)), draw(st.sampled_from([0, 1, 2, INF]))


@settings(max_examples=60, deadline=None)
@given(branch_supported_combinations())
# the two terms cancel at their common order -2 at infinity: the order, -1,
# is read only because the bound counts the terms' poles at 0 and 2
@example((FormCombination(two_level_cover(), (rat(F3, [2, 2], [0, 0, 1]), rat(F3, [2, 1], [0, 1, 1]))), INF))
def test_order_matches_wide_expansion(case):
    # distinct closed-form orders give the minimum with no expansion; ties
    # are read up to the Riemann-Hurwitz bound; both against the old window
    combo, center = case
    assume(not combo.is_zero())
    got = ord_at_critical(combo, center)
    upto = max(cartier._term_orders(combo.cover, combo.hs, center)) + 12
    wide = heuristic_window_expansion(combo.cover, combo.hs, center, upto)
    assert got == wide.base.order()


def test_each_expansion_is_built_once(monkeypatch):
    calls = {"expand_combination": 0, "_expand": 0, "_order_bound": 0}

    def counted(name):
        original = getattr(cartier, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cartier, name, wrapper)

    counted("expand_combination")
    counted("_expand")
    counted("_order_bound")
    datum = two_level_datum()
    deform.rigidity_check(datum)  # moving centers, theta channels, two levels
    # a branch constant that needs F_9
    cartier.expand_combination(two_level_cover(), (rat(F3, [1], [1]), rat(F3, [0], [1])), 2, 4)
    for ph in phi_basis(datum):
        for center in (0, 1, 2, INF):
            ord_at_critical(ph, center)
    assert calls["_order_bound"] > 0  # some orders tie and are expanded
    assert calls["_expand"] == calls["expand_combination"] > 0
