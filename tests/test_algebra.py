"""Field, polynomial, rational function and Laurent series arithmetic."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    LaurentSeries,
    RationalFunction,
    multiplicity_at,
    poly_divmod,
    poly_gcd,
    series_at,
)

from defdatum import _corepy
from defdatum.algebra import (
    _TABLE_CAP,
    INF,
    FieldDescriptor,
    FieldElement,
    Poly,
    _nth_root_by_scan,
    nth_root_in_field,
    nth_root_with_extension,
)

F3 = FieldDescriptor.get(3, 1)
F5 = FieldDescriptor.get(5, 1)
F9 = FieldDescriptor.get(3, 2)
F25 = FieldDescriptor.get(5, 2)


def elements(descriptor):
    return st.integers(0, descriptor.order - 1).map(
        lambda k: list(descriptor.elements())[k]
    )


def test_descriptor_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        FieldDescriptor.get(4, 1)
    with pytest.raises(ValueError):
        FieldDescriptor.get(1, 1)
    with pytest.raises(ValueError):
        FieldDescriptor.get(3, 0)


def test_descriptor_interning():
    assert FieldDescriptor.get(3, 2) is F9
    assert F9.order == 9
    assert len(list(F9.elements())) == 9


def test_canonical_modulus_f4():
    # w^2 + w + 1 is the least irreducible quadratic over F_2
    F4 = FieldDescriptor.get(2, 2)
    assert list(F4.modulus) == [1, 1, 1]


@given(elements(F9), elements(F9), elements(F9))
def test_field_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + F9.zero() == a
    assert a * F9.one() == a
    assert a - a == F9.zero()


@given(elements(F25))
def test_field_inverse_and_frobenius(a):
    if not a.is_zero():
        assert a * a.inverse() == F25.one()
        assert a ** (F25.order - 1) == F25.one()
    assert a.frobenius() == a**5
    assert a.frobenius().frobenius_inverse() == a
    assert a.frobenius().frobenius() == a  # Frobenius has order r


@given(elements(F9))
def test_multiplicative_order_divides_group_order(a):
    if a.is_zero():
        return
    n = a.multiplicative_order()
    assert 8 % n == 0
    assert a**n == F9.one()
    for d in range(1, n):
        assert a**d != F9.one()


def test_generator_is_a_root_of_the_modulus():
    g = F9.generator()
    modulus = Poly(F9, [F9.element(c) for c in F9.modulus])
    assert modulus.evaluate(g).is_zero()


def test_embed_is_a_field_homomorphism():
    F81 = FieldDescriptor.get(3, 4)
    for a in F9.elements():
        for b in list(F9.elements())[:4]:
            assert (a + b).embed(F81) == a.embed(F81) + b.embed(F81)
            assert (a * b).embed(F81) == a.embed(F81) * b.embed(F81)
    one = F9.one().embed(F81)
    assert one == F81.one()


def test_embed_least_root_is_deterministic():
    F81 = FieldDescriptor.get(3, 4)
    g = F9.generator()
    assert g.embed(F81) == g.embed(F81)
    assert g.embed(F81).key() == min(
        a.key()
        for a in F81.elements()
        if Poly(F81, [F81.element(c) for c in F9.modulus]).evaluate(a).is_zero()
    )


@given(elements(F9))
def test_element_json_round_trip(a):
    assert FieldElement.from_json(a.to_json()) == a


def poly_from(descriptor, ints):
    return Poly.from_ints(descriptor, ints)


@given(
    st.lists(st.integers(0, 4), max_size=6),
    st.lists(st.integers(0, 4), min_size=1, max_size=4),
)
def test_poly_divmod_oracle(a_ints, b_ints):
    a = poly_from(F5, a_ints)
    b = poly_from(F5, b_ints)
    if b.is_zero():
        return
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@given(
    st.lists(st.integers(0, 4), max_size=5),
    st.lists(st.integers(0, 4), max_size=5),
)
def test_poly_gcd_divides_both(a_ints, b_ints):
    a = poly_from(F5, a_ints)
    b = poly_from(F5, b_ints)
    g = poly_gcd(a, b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
        return
    assert g.lead == 1
    assert poly_divmod(a, g)[1].is_zero()
    assert poly_divmod(b, g)[1].is_zero()


def test_poly_multiplicity():
    x = Poly.x(F5)
    f = (x - Poly.constant(F5, 2)) ** 3 * (x - Poly.constant(F5, 1))
    assert multiplicity_at(f, F5.element(2)) == 3
    assert multiplicity_at(f, F5.element(1)) == 1
    assert multiplicity_at(f, F5.element(0)) == 0


def test_poly_derivative_leibniz():
    x = Poly.x(F5)
    f = x**3 + Poly.constant(F5, 2) * x
    g = x**2 + Poly.constant(F5, 1)
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


def test_rational_normalization():
    x = Poly.x(F5)
    f = RationalFunction(x**2 - x, x**2 - Poly.constant(F5, 1))
    # common factor x - 1 cancels and the denominator is monic
    assert f.numerator == x
    assert f.denominator == x + Poly.constant(F5, 1)


def test_rational_ord_at():
    x = Poly.x(F5)
    f = RationalFunction(x**3, (x - Poly.constant(F5, 1)) ** 2)
    assert f.ord_at(F5.element(0)) == 3
    assert f.ord_at(F5.element(1)) == -2
    assert f.ord_at(F5.element(2)) == 0
    assert f.ord_at(INF) == -1  # deg den - deg num


@given(st.lists(st.integers(0, 2), min_size=1, max_size=4))
def test_rational_field_ops(ints):
    num = poly_from(F3, ints)
    if num.is_zero():
        return
    x = Poly.x(F3)
    f = RationalFunction(num, x + Poly.constant(F3, 1))
    assert (f / f) == RationalFunction.constant(F3, 1)
    assert (f - f).is_zero()
    assert f * RationalFunction.constant(F3, 2) + f == f * RationalFunction.constant(F3, 0)


def test_series_at_geometric():
    # 1/(1 - x) = 1 + x + x^2 + ... at 0
    x = Poly.x(F5)
    f = RationalFunction(Poly.constant(F5, 1), Poly.constant(F5, 1) - x)
    s = series_at(f, F5.element(0), 4)
    for n in range(5):
        assert s.coeff(n) == F5.one()


def test_series_at_pole_and_infinity():
    x = Poly.x(F5)
    f = RationalFunction(Poly.constant(F5, 1), x**2)
    s = series_at(f, F5.element(0), 0)
    assert s.order() == -2
    assert s.coeff(-2) == F5.one()
    t = series_at(RationalFunction.from_poly(x**3), INF, 0)
    assert t.order() == -3  # parameter 1/x


def test_series_inverse_oracle():
    s = LaurentSeries(F5, -1, [F5.element(2), F5.element(1), F5.element(3)])
    prod = s * s.inverse()
    assert prod.order() == 0
    assert prod.coeff(0) == F5.one()
    for n in range(1, prod.trunc + 1):
        assert prod.coeff(n).is_zero()


def test_series_nth_root_oracle():
    s = LaurentSeries(F5, 2, [F5.element(4), F5.element(1), F5.element(0), F5.element(2)])
    r = s.nth_root(2, F5.element(2))  # 2^2 = 4, the leading coefficient
    sq = r * r
    for n in range(2, sq.trunc + 1):
        assert sq.coeff(n) == s.coeff(n)


# m prime to p in {2, 3, 4, 6}; m = 6 at p = 5 is 1 mod p, where the
# iteration's (m - 1) y term vanishes
SERIES_ROOT_CASES = [
    (desc, m)
    for desc in (F5, FieldDescriptor.get(7, 1), F9, F25)
    for m in (2, 3, 4, 6)
    if m % desc.p
]


@pytest.mark.parametrize(
    "desc,m", SERIES_ROOT_CASES, ids=[f"F{d.order}-m{m}" for d, m in SERIES_ROOT_CASES]
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_series_nth_root_is_the_root_with_the_given_leading_coefficient(desc, m, data):
    lead = data.draw(elements(desc).filter(bool))
    rest = data.draw(st.lists(elements(desc), max_size=9))
    start = m * data.draw(st.integers(-2, 2))
    s = LaurentSeries(desc, start, [lead**m, *rest])
    r = s.nth_root(m, lead)
    assert r.window() == (start // m, start // m + len(rest))
    assert r.coeff(start // m) == lead
    power = r**m
    assert power.window() == s.window()
    assert power == s


def test_series_derivative():
    s = LaurentSeries(F5, -1, [F5.element(1), F5.element(0), F5.element(3)])
    d = s.derivative()
    assert d.coeff(-2) == F5.element(-1)
    assert d.coeff(0) == F5.element(3)


def test_nth_root_in_field():
    a = F9.generator() ** 2
    r = nth_root_in_field(a, 2)
    assert r is not None and r * r == a
    # modulus x^2 + 1: x has order 4, and every y in F_9^x has y^8 = 1
    assert nth_root_in_field(F9.generator(), 8) is None


def test_nth_root_with_extension():
    # 2 is not a square in F_3; the root lives in F_9
    r, target = nth_root_with_extension(F3.element(2), 2)
    assert target == F9
    assert r * r == F3.element(2).embed(F9)


def trial_nth_root_with_extension(a, m):
    """Oracle: try F_{p^{rk}} for k = 1, 2, ... until a root appears."""
    d = a.descriptor
    for k in range(1, m + 1):
        target = FieldDescriptor.get(d.p, d.r * k)
        root = nth_root_in_field(a.embed(target), m)
        if root is not None:
            return root, target
    raise AssertionError("no root up to degree m")


def test_extension_degree_rule_matches_trial_loop():
    # every element of F_2 ... F_9 and every m <= 6 with q^m <= 2^13 (the
    # degree is at most m, so the trial loop stays on table-backed fields)
    cases = 0
    for p, r in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        d = FieldDescriptor.get(p, r)
        for m in range(1, 7):
            if d.order**m > 1 << 13:
                continue
            for a in d.elements():
                root, target = nth_root_with_extension(a, m)
                assert (root, target) == trial_nth_root_with_extension(a, m)
                assert root**m == a.embed(target)
                cases += 1
    assert cases == 175


# table arithmetic against polynomial arithmetic modulo the canonical
# modulus; F_{2^17} is above the table cap and takes the polynomial path
ORACLE_FIELDS = [(2, 1), (2, 2), (3, 2), (5, 2), (5, 3), (5, 6), (2, 17)]


def field_vectors(d):
    return st.lists(st.integers(0, d.p - 1), min_size=d.r, max_size=d.r)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ORACLE_FIELDS), st.data())
def test_table_arithmetic_matches_polynomial_oracle(pr, data):
    d = FieldDescriptor.get(*pr)
    p, r, q, f = d.p, d.r, d.order, list(d.modulus)
    A = data.draw(field_vectors(d))
    B = data.draw(field_vectors(d))
    a, b = d.element(A), d.element(B)

    def red(c):
        return _corepy.divmod_(c, f, p)[1]

    def check(x, c):
        assert x.coeffs == tuple(c) + (0,) * (r - len(c))

    assert d.element(A) is a or q > _TABLE_CAP  # interned below the cap
    assert a.key() == sum(c * p**k for k, c in enumerate(A))
    assert hash(a) == hash((d, a.coeffs)) and hash(d) == hash((p, r, d.modulus))
    check(a + b, _corepy.add(A, B, p))
    check(a - b, _corepy.sub(A, B, p))
    check(-a, _corepy.neg(A, p))
    check(a * b, red(_corepy.mul(A, B, p)))
    if b:
        inv = _corepy.powmod(B, q - 2, f, p)
        check(b.inverse(), inv)
        check(a / b, red(_corepy.mul(A, inv, p)))
    else:
        with pytest.raises(ZeroDivisionError):
            a / b
    e = data.draw(st.integers(-3 * q, 3 * q))
    if e >= 0:
        check(a**e, _corepy.powmod(A, e, f, p))
    elif a:
        check(a**e, _corepy.powmod(_corepy.powmod(A, q - 2, f, p), -e, f, p))
    else:
        with pytest.raises(ZeroDivisionError):
            a**e
    check(a.frobenius(), _corepy.powmod(A, p, f, p))
    check(a.frobenius_inverse(), _corepy.powmod(A, p ** (r - 1), f, p))


@functools.cache
def least_root_by_polynomials(src, dst):
    """Coefficients of the least root of src's modulus in dst."""
    p, f = dst.p, list(dst.modulus)
    for k in range(dst.order):
        x = [(k // p**i) % p for i in range(dst.r)]
        acc = []
        for c in reversed(src.modulus):
            acc = _corepy.add(_corepy.divmod_(_corepy.mul(acc, x, p), f, p)[1], [c], p)
        if not acc:
            return _corepy.trim(x)
    raise AssertionError("no root")


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([((2, 1), (2, 2)), ((3, 2), (3, 4)), ((5, 2), (5, 6)), ((5, 3), (5, 6))]),
    st.data(),
)
def test_table_embed_matches_polynomial_oracle(pair, data):
    src, dst = (FieldDescriptor.get(*pr) for pr in pair)
    A = data.draw(field_vectors(src))
    p, f = dst.p, list(dst.modulus)
    rho = least_root_by_polynomials(src, dst)
    image = []
    for c in reversed(A):
        image = _corepy.add(_corepy.divmod_(_corepy.mul(image, rho, p), f, p)[1], [c], p)
    assert src.element(A).embed(dst).coeffs == tuple(image) + (0,) * (dst.r - len(image))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(2, 2), (3, 1), (3, 2), (5, 2), (7, 1), (5, 3)]), st.data())
def test_nth_root_congruence_matches_scan(pr, data):
    d = FieldDescriptor.get(*pr)
    a = d.element(data.draw(field_vectors(d)))
    m = data.draw(st.integers(1, 2 * d.order))
    root = nth_root_in_field(a, m)
    assert root is _nth_root_by_scan(a, m)
    assert root is None or root**m == a
