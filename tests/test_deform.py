"""First-order deformations: lifts, Kodaira-Spencer, specialty, rigidity."""

import dataclasses
import functools
import json
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    RationalFunction,
    branch_roots,
    cartier_rational,
    epsilon_form_by_rationals,
    is_j_special_by_expansions,
    lift_datum_by_rationals,
    rigidity_check_by_directions,
    expand_levels,
    series_at,
    specialty_expansions,
    specialty_series,
    step_factor,
    to_rational,
)

from defdatum import algebra, cartier, deform, search, sigdata
from defdatum.algebra import INF, FieldDescriptor, Poly
from defdatum.deform import (
    is_j_special,
    kodaira_spencer,
    lift_datum,
    rigidity_check,
)

F3 = FieldDescriptor.get(3, 1)
F5 = FieldDescriptor.get(5, 1)


def sig_of(p, m, base, new=()):
    points = tuple(
        [sigdata.SigPoint("B0", 0, b) for b in base]
        + [sigdata.SigPoint("new", 1, b) for b in new]
    )
    return sigdata.canonicalize(sigdata.Signature(p, m, points))


def p5_datum():
    data = search.search_field(sig_of(5, 2, (1, 0, 0), new=(1,)), F5)
    assert len(data) == 1
    return data[0]


def p3_two_level_datum():
    data = search.search_field(sig_of(3, 4, (3, 0, 0), new=(1,)), F3)
    assert len(data) == 1
    return data[0]


def test_zero_direction_lifts_to_zero_correction():
    datum = p5_datum()
    lifted = lift_datum(datum, (F5.element(0),))
    assert all(h.is_zero() for h in lifted.h)
    assert kodaira_spencer(lifted) == (F5.zero(),)


def test_kodaira_spencer_round_trip():
    datum = p5_datum()
    for c in (1, 2, 3, 4):
        delta = (F5.element(c),)
        lifted = lift_datum(datum, delta)
        assert lifted.delta == delta
        assert kodaira_spencer(lifted) == delta


def test_kodaira_spencer_skips_levels_killed_by_p():
    # the new orbit is (1, 3): level 1 has b = 3 = 0 mod 3
    datum = p3_two_level_datum()
    d = datum.descriptor
    delta = (d.one(),)
    lifted = lift_datum(datum, delta)
    assert kodaira_spencer(lifted) == delta


def test_lifted_eps_part_is_in_the_cartier_kernel():
    datum = p5_datum()
    delta = (F5.element(2),)
    lifted = lift_datum(datum, delta)
    cover = datum.cover
    for i in range(cover.s):
        total = deform._polar_part(datum, delta)[i] + lifted.h[i]
        image = cartier_rational(to_rational(total) * step_factor(cover, i))
        assert image.is_zero()


# (p, m, |B|, r) of searched data the lift is compared on: (3, 4, 4, 2)
# has two levels, one datum of (5, 2, 4, 3) lives over F_125, and the
# (7, 2, 5, 1) data have two new points, so a direction that moves only
# one of them gives a polar part whose denominator is a proper factor of
# Q N
LIFT_CONFIGS = [(5, 2, 4, 1), (5, 2, 4, 2), (3, 4, 4, 2), (5, 2, 4, 3), (7, 2, 5, 1)]


@functools.cache
def lift_data(p, m, points, r):
    field = FieldDescriptor.get(p, r)
    data = [
        datum
        for sig in sigdata.enumerate_signatures(p, m, points)
        for datum in search.search_field(sig, field)
    ]
    assert data
    return data[:1] if r == 3 else data


@pytest.mark.parametrize("config", LIFT_CONFIGS, ids=lambda c: ",".join(map(str, c)))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_lift_matches_the_rational_oracle(config, data):
    datum = data.draw(st.sampled_from(lift_data(*config)))
    elems = list(datum.descriptor.elements())
    delta = tuple(data.draw(st.sampled_from(elems)) for _ in datum.tau)
    lifted = lift_datum(datum, delta).h
    assert tuple(to_rational(h) for h in lifted) == lift_datum_by_rationals(datum, delta).h


@pytest.mark.parametrize("config", LIFT_CONFIGS, ids=lambda c: ",".join(map(str, c)))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_lift_and_kodaira_spencer_are_linear_in_delta(config, data):
    # rigidity_check derives the line F_q^x delta from the lift of delta
    datum = data.draw(st.sampled_from(lift_data(*config)))
    elems = list(datum.descriptor.elements())
    delta = tuple(data.draw(st.sampled_from(elems)) for _ in datum.tau)
    c = data.draw(st.sampled_from([e for e in elems if not e.is_zero()]))
    lifted = lift_datum(datum, delta)
    scaled = lift_datum(datum, tuple(c * v for v in delta))
    assert scaled.h == tuple(h * c for h in lifted.h)
    assert kodaira_spencer(scaled) == tuple(c * v for v in kodaira_spencer(lifted))


@pytest.mark.parametrize("config", LIFT_CONFIGS, ids=lambda c: ",".join(map(str, c)))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_epsilon_form_matches_the_rational_oracle(config, data):
    # the derived form at a new point (its own shift, the lift's theta) and
    # at infinity (the polar part), against normalized rational functions
    datum = data.draw(st.sampled_from(lift_data(*config)))
    elems = list(datum.descriptor.elements())
    delta = tuple(data.draw(st.sampled_from(elems)) for _ in datum.tau)
    lifted = lift_datum(datum, delta)
    omega = cartier.omega_combination(datum)
    moved = {2 + k: v for k, v in enumerate(delta)}
    k = data.draw(st.sampled_from(range(len(datum.tau))))
    for center, shifts, thetas in ((INF, moved, None), (2 + k, {2 + k: delta[k]}, lifted.h)):
        got = cartier.epsilon_form(omega, center, shifts, thetas).hs
        assert tuple(to_rational(g) for g in got) == epsilon_form_by_rationals(
            omega, center, shifts, thetas
        )


@pytest.mark.parametrize("make", [p3_two_level_datum, lambda: lift_data(7, 2, 5, 1)[0]],
                         ids=["two-level", "two-new-points"])
def test_rigidity_takes_no_gcd_and_no_polynomial_division(make):
    # every form is a numerator over known branch-point exponents: the
    # package has no normalized rational function, no gcd and no Poly
    # division for a round to take, and the round agrees with the scan
    # over normalized rational functions
    assert not hasattr(algebra, "RationalFunction")
    removed = ("__divmod__", "__floordiv__", "__mod__", "gcd", "multiplicity_at")
    assert not any(hasattr(Poly, name) for name in removed)
    datum = make()
    assert rigidity_check(datum) == rigidity_check_by_directions(datum)


# every LIFT_CONFIGS entry with q <= 25, the two-new-point (7, 2, 5, 1)
# among them, and (7, 4, 4, 1), whose two data are not rigid
RIGIDITY_ORACLE_CONFIGS = [c for c in LIFT_CONFIGS if c[0] ** c[3] <= 25] + [(7, 4, 4, 1)]


@pytest.mark.parametrize(
    "config", RIGIDITY_ORACLE_CONFIGS, ids=lambda c: ",".join(map(str, c))
)
def test_rigidity_matches_the_direction_scan(config):
    for datum in lift_data(*config):
        assert rigidity_check(datum) == rigidity_check_by_directions(datum)


# every LIFT_CONFIGS datum (q <= 25, and the F_125 datum of (5, 2, 4, 3))
# and the (3, 4, 4, 1) data: with (3, 4, 4, 2) they are the s = 2 data,
# where c runs over F_9 and level 1 scales by c^3, not c
SPECIALTY_CONFIGS = LIFT_CONFIGS + [(3, 4, 4, 1)]


def specialty_directions(datum, data):
    """The zero direction, c e_k for a drawn c and every k, and a drawn
    delta (one moving every new point on the two-new-point data)."""
    d = datum.descriptor
    n_new = len(datum.tau)
    elems = list(d.elements())
    units = [e for e in elems if not e.is_zero()]
    c = data.draw(st.sampled_from(units))
    spread = tuple(data.draw(st.sampled_from(units if n_new > 1 else elems)) for _ in datum.tau)
    return [(d.zero(),) * n_new, spread] + [
        tuple(c if j == k else d.zero() for j in range(n_new)) for k in range(n_new)
    ]


@pytest.mark.parametrize("config", SPECIALTY_CONFIGS, ids=lambda c: ",".join(map(str, c)))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_specialty_by_linearity_matches_one_expansion_per_c(config, data):
    # on every datum, along the zero direction, every c e_k and a random
    # delta, at every new point: the verdicts, and every c's coefficients
    # through M read off one frame of level series against one expansion
    # per c, the linearity the closed form rests on
    for datum in lift_data(*config):
        assert_specialty_matches_the_oracle(datum, specialty_directions(datum, data))


def assert_specialty_matches_the_oracle(datum, directions):
    """is_j_special and the level-series frame against is_j_special_by_expansions."""
    n_new = len(datum.tau)
    branches = branch_roots(datum)
    for delta in directions:
        lifted = lift_datum(datum, delta)
        for k in range(n_new):
            assert is_j_special(lifted, k) == is_j_special_by_expansions(lifted, k, branches[k])
            # every c's coefficients through M, one series per c in the same order
            pairs = list(
                zip(
                    specialty_series(lifted, k, branches[k]),
                    specialty_expansions(lifted, k, branches[k]),
                    strict=True,
                )
            )
            assert len(pairs) == datum.descriptor.p ** datum.cover.s - 1
            for fast, slow in pairs:
                target = fast[2]
                assert target == slow[2]
                for got, want in zip(fast[:2], slow[:2]):
                    lo = min(got.start, want.start)
                    assert [got.coeff(n) for n in range(lo, target + 1)] == [
                        want.coeff(n) for n in range(lo, target + 1)
                    ]


# SPECIALTY_CONFIGS, both (7, 4, 4, 1) data and the (5, 6, 4, 1) and
# (5, 8, 4, 1) data: the last three hold tie points, new points whose
# orbit is least at both levels, where omega's coefficient at M is
# A_0 c + A_1 c^p
TIE_CONFIGS = [(7, 4, 4, 1), (5, 6, 4, 1), (5, 8, 4, 1)]
CLOSED_FORM_CONFIGS = SPECIALTY_CONFIGS + TIE_CONFIGS


@pytest.mark.parametrize("config", CLOSED_FORM_CONFIGS, ids=lambda c: ",".join(map(str, c)))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_specialty_in_closed_form_matches_the_level_series(config, data):
    # every level's closed-form order against the order of its series in
    # the oracle's frame, omega's leading coefficients A_l against the
    # level series' coefficients at M, and the verdicts against one
    # expansion per c
    ties = 0
    for datum in lift_data(*config):
        big = datum.embedded(datum.field_with_roots())
        omega, big_omega = cartier.omega_combination(datum), cartier.omega_combination(big)
        branches = branch_roots(datum)
        for delta in specialty_directions(datum, data):
            lifted = lift_datum(datum, delta)
            for k in range(len(datum.tau)):
                slot, target = deform._target(datum, k)
                eps = cartier.epsilon_form(omega, slot, {slot: delta[k]}, lifted.h)
                big_eps = cartier.epsilon_form(
                    big_omega,
                    slot,
                    {slot: delta[k].embed(big.descriptor)},
                    [h.embed(big.descriptor, big.cover.taus) for h in lifted.h],
                )
                forms = [omega, eps] if not eps.is_zero() else [omega]
                series = expand_levels(
                    big.cover, [big_omega.hs, big_eps.hs][: len(forms)], slot, target, branches[k]
                )
                for form, levels in zip(forms, series, strict=True):
                    for level, (h, ser) in enumerate(zip(form.hs, levels, strict=True)):
                        if h.is_zero():
                            assert ser is None
                            continue
                        order = cartier.ord_single_form(datum.cover, level, h, slot)
                        assert ser.order() == (order if order <= ser.trunc else None)
                least = deform._least_levels(datum, k)
                leads, field = deform._leading_coefficients(datum, k, least)
                assert field == branches[k][1]
                for level, lead in zip(least, leads, strict=True):
                    assert series[0][level].coeff(target) == lead
                ties += len(least) > 1
                assert is_j_special(lifted, k) == is_j_special_by_expansions(
                    lifted, k, branches[k]
                )
    assert bool(ties) == (config in TIE_CONFIGS)


RIGIDITY_GOLDEN = Path(__file__).parent / "data" / "rigidity-p5-m4-points4-r1.json"


def test_rigidity_takes_no_series_and_off_a_tie_no_root(monkeypatch):
    # the package has no series type, and at new points whose orbit is
    # least at one level only rigidity takes no branch root: the reports,
    # computed before the root is made to raise, are unchanged
    assert not hasattr(algebra, "LaurentSeries")
    cases = [(datum, rigidity_check_by_directions(datum)) for datum in lift_data(5, 2, 4, 1)]
    cases += [(datum, rigidity_check_by_directions(datum)) for datum in lift_data(3, 4, 4, 1)]
    golden = json.loads(RIGIDITY_GOLDEN.read_text())["results"]
    for entry in golden:
        datum = search.DeformationDatum.from_json(entry["datum"])
        cases.append((datum, {key: value for key, value in entry.items() if key != "datum"}))

    def no_root(cover, center):
        raise AssertionError("a branch root was taken")

    monkeypatch.setattr(cartier, "branch_root", no_root)
    for datum, expected in cases:
        report = rigidity_check(datum)
        assert {key: report[key] for key in expected} == expected


def test_omega_order_off_the_target_is_an_error():
    # with the least level's constant zeroed, omega's least order at the new
    # point lies above M: an ArithmeticError, never a verdict
    for datum in lift_data(3, 4, 4, 1):
        (least,) = deform._least_levels(datum, 0)
        eps = list(datum.epsilon)
        eps[least] = datum.descriptor.zero()
        broken = dataclasses.replace(datum, epsilon=tuple(eps))
        with pytest.raises(ArithmeticError, match="least order"):
            deform._omega_is_special(broken, 0)


def test_non_rigid_data_are_compared():
    assert not any(rigidity_check(datum)["rigid"] for datum in lift_data(7, 4, 4, 1))


@pytest.mark.parametrize("config", [(5, 2, 4, 1), (7, 2, 5, 1)], ids=["one-new", "two-new"])
def test_rigidity_lifts_once_per_unit_vector(config, monkeypatch):
    calls = []

    def counted(datum, delta):
        calls.append(delta)
        return lift_datum(datum, delta)

    monkeypatch.setattr(deform, "lift_datum", counted)
    for datum in lift_data(*config):
        calls.clear()
        rigidity_check(datum)
        assert len(calls) == len(datum.tau) + 1


@pytest.mark.parametrize("config", [(7, 2, 5, 1), (5, 2, 5, 2)], ids=["f7", "f25"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_lift_along_any_direction_fails_specialty(config, data):
    # the rigidity document lists only the directions c e_k; every other
    # nonzero direction, one moving both new points, must break specialty too
    datum = data.draw(st.sampled_from(lift_data(*config)))
    elems = list(datum.descriptor.elements())
    delta = tuple(data.draw(st.sampled_from(elems)) for _ in datum.tau)
    assume(any(not v.is_zero() for v in delta))
    lifted = lift_datum(datum, delta)
    assert any(not is_j_special(lifted, j) for j in range(len(datum.tau)))


@pytest.mark.parametrize("config", LIFT_CONFIGS, ids=lambda c: ",".join(map(str, c)))
def test_closed_form_residue_matches_the_expansion(config):
    poles = 0
    for datum in lift_data(*config):
        d = datum.descriptor
        n_new = len(datum.tau)
        directions = [tuple([d.generator()] * n_new)]
        for k in range(n_new):
            directions.append(tuple(d.one() if j == k else d.zero() for j in range(n_new)))
        for delta in directions:
            for h in lift_datum(datum, delta).h:
                for k, tau in enumerate(datum.tau):
                    f = to_rational(h)
                    upto = -1 if f.is_zero() else max(-1, f.ord_at(tau))
                    expected = series_at(f, tau, upto).coeff(-1)
                    assert h.simple_residue(2 + k) == expected
                    poles += not expected.is_zero()
    assert poles


@pytest.mark.parametrize("make", [p5_datum, p3_two_level_datum])
def test_polar_part_matches_its_closed_form(make):
    # A_i = -(eps_i/(m Q)) sum_j b_j^(i) delta_j/(x - tau_j) over the new points
    datum = make()
    d = datum.descriptor
    x = Poly.x(d)
    delta = (d.one() + d.one(),)
    sig = datum.signature
    for i, a_i in enumerate(deform._polar_part(datum, delta)):
        total = RationalFunction(Poly(d, []), Poly.constant(d, 1))
        for k, j in enumerate(sig.new_indices()):
            b = d.element(sig.orbit(j)[i])
            total = total + RationalFunction(
                Poly.constant(d, b * delta[k]), x - Poly.constant(d, datum.tau[k])
            )
        scale = -(datum.epsilon[i] * d.element(sig.m).inverse())
        assert to_rational(a_i) == total * RationalFunction(Poly.constant(d, scale), datum.q_poly)


def test_lift_rejects_wrong_delta_length():
    datum = p5_datum()
    with pytest.raises(ValueError):
        lift_datum(datum, ())


def test_lift_requires_purity():
    impure = sigdata.Signature(
        3,
        4,
        (
            sigdata.SigPoint("B0", 0, 3),
            sigdata.SigPoint("B0", 0, 3),
            sigdata.SigPoint("B0", 0, 2),
        ),
    )
    fake = search.DeformationDatum(impure, F3, (), (F3.one(), F3.one()), (F3.one(), F3.one()))
    with pytest.raises(ValueError):
        lift_datum(fake, ())


def test_specialty_along_the_zero_direction():
    datum = p5_datum()
    lifted = lift_datum(datum, (F5.element(0),))
    assert is_j_special(lifted, 0)


def test_specialty_fails_along_nonzero_directions():
    datum = p5_datum()
    lifted = lift_datum(datum, (F5.element(1),))
    assert not is_j_special(lifted, 0)


def weakened_is_j_special(deformed, k):
    """Negative control: only asks that the first base coefficient sits at
    M, ignoring the nilpotent (epsilon) coefficients below it."""
    return all(
        base.order() == target
        for base, eps, target in specialty_expansions(
            deformed, k, branch_roots(deformed.base)[k]
        )
    )


def test_weakened_specialty_is_blind_to_the_deformation():
    # the weakened check ignores the nilpotent coefficients and wrongly
    # accepts a moved datum; it must stay strictly weaker than the real one
    datum = p5_datum()
    lifted = lift_datum(datum, (F5.element(1),))
    assert weakened_is_j_special(lifted, 0)
    assert not is_j_special(lifted, 0)


def test_rigidity_p5():
    report = rigidity_check(p5_datum())
    assert report["rigid"]
    assert report["zero_roundtrip"]
    assert report["zero_direction_special"]
    assert len(report["directions"]) == 4
    for entry in report["directions"]:
        assert entry["roundtrip"]
        assert entry["fails_specialty_at"] == [0]


def test_rigidity_two_level():
    report = rigidity_check(p3_two_level_datum())
    assert report["rigid"]
    assert len(report["directions"]) == 2


def test_rigidity_golden_is_vacuous():
    data = search.search_field(sig_of(3, 2, (1, 1, 0)), F3)
    report = rigidity_check(data[0])
    assert report["rigid"]
    assert report["directions"] == []
