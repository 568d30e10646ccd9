"""Branch-point search, eigenform constants and the verification battery."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import check_candidate_by_rationals

from defdatum import search, sigdata
from defdatum.algebra import FieldDescriptor
from defdatum.search import (
    DeformationDatum,
    build_cover,
    check_candidate,
    frobenius_orbits,
    normalize_epsilons,
    search_field,
    verify_datum,
)

F3 = FieldDescriptor.get(3, 1)
F5 = FieldDescriptor.get(5, 1)
F7 = FieldDescriptor.get(7, 1)
F9 = FieldDescriptor.get(3, 2)


def sig_of(p, m, base, new=()):
    points = tuple(
        [sigdata.SigPoint("B0", 0, b) for b in base]
        + [sigdata.SigPoint("new", 1, b) for b in new]
    )
    return sigdata.canonicalize(sigdata.Signature(p, m, points))


def test_golden_search():
    data = search_field(sig_of(3, 2, (1, 1, 0)), F3)
    assert len(data) == 1
    datum = data[0]
    assert datum.tau == ()
    assert datum.epsilon == (F3.one(),)
    assert datum.lam == (F3.one(),)
    checks = verify_datum(datum)
    assert checks["passed"]
    assert all(checks.values())


def test_golden_verification_names():
    checks = verify_datum(search_field(sig_of(3, 2, (1, 1, 0)), F3)[0])
    for name in (
        "signature_valid",
        "pure",
        "special",
        "epsilon_units",
        "epsilon_relations",
        "cartier_fixed",
        "vanishing_orders",
        "isotypic_cohomology_trivial",
        "phi_fixed",
        "phi_count",
    ):
        assert checks[name] is True


def test_search_four_points_p5():
    data = search_field(sig_of(5, 2, (1, 0, 0), new=(1,)), F5)
    assert len(data) == 1
    assert data[0].tau[0] == F5.element(2)
    assert verify_datum(data[0])["passed"]


def test_search_four_points_p7_two_data():
    data = search_field(sig_of(7, 2, (1, 0, 0), new=(1,)), F7)
    taus = sorted(t.key() for dt in data for t in dt.tau)
    assert taus == [F7.element(4).key(), F7.element(6).key()]
    for dt in data:
        assert verify_datum(dt)["passed"]


def test_search_empty_case():
    # the eigenvalue condition degenerates onto the base point 1
    sig = sig_of(3, 2, (1, 0, 0), new=(1,))
    for r in (1, 2, 3):
        assert search_field(sig, FieldDescriptor.get(3, r)) == []


def test_search_two_level_case():
    data = search_field(sig_of(3, 4, (3, 0, 0), new=(1,)), F3)
    assert len(data) == 1
    datum = data[0]
    assert datum.signature.s == 2
    assert datum.tau[0] == F3.element(2).embed(datum.descriptor)
    assert verify_datum(datum)["passed"]


def test_check_candidate_rejects_most_points():
    sig = sig_of(5, 2, (1, 0, 0), new=(1,))
    assert check_candidate(sig, F5, (F5.element(3),)) is None
    assert check_candidate(sig, F5, (F5.element(2),)) is not None


def fields_up_to(p, q_max):
    return [FieldDescriptor.get(p, r) for r in range(1, 8) if p**r <= q_max]


def outside_0_1(descriptor):
    return [t for t in descriptor.elements() if not t.is_zero() and t != descriptor.one()]


# p in {3, 5, 7}, m in {2, 3, 4}, p invertible mod m
PM = [(p, m) for p in (3, 5, 7) for m in (2, 3, 4) if m % p]


@pytest.mark.parametrize("p,m", PM)
def test_check_candidate_matches_the_oracle_on_every_tau(p, m):
    # every one-new-point signature, every tau of every F_q with q <= 49
    sigs = [sig for sig in sigdata.enumerate_signatures(p, m, 4) if len(sig.new_indices()) == 1]
    assert sigs
    for descriptor in fields_up_to(p, 49):
        for sig in sigs:
            for tau in outside_0_1(descriptor):
                lams, _ = check_candidate_by_rationals(sig, descriptor, (tau,))
                assert check_candidate(sig, descriptor, (tau,)) == lams


def test_check_candidate_matches_the_oracle_on_every_residue_tuple():
    # check_candidate takes any cover, admissible or not: every residue
    # tuple (three base points, one new) with sum 0 mod m, every tau of F_p.
    # The step exponents e_j = -floor(p b_j / m) are never positive, so
    # N = 1, deg C(g^(p-1)) <= deg g - 2 and the oracle never finds a
    # non-constant numerator; its two other rejections both occur.
    reasons = set()
    for p, m in PM:
        descriptor = FieldDescriptor.get(p, 1)
        for bs in itertools.product(range(m), repeat=4):
            if sum(bs) % m:
                continue
            sig = sig_of(p, m, bs[:3], new=bs[3:])
            for tau in outside_0_1(descriptor):
                lams, reason = check_candidate_by_rationals(sig, descriptor, (tau,))
                assert check_candidate(sig, descriptor, (tau,)) == lams
                reasons.add(reason)
    assert reasons == {None, "zero image", "non-constant denominator"}


F49 = FieldDescriptor.get(7, 2)
SIG_7_2_5 = sigdata.enumerate_signatures(7, 2, 5)


def test_check_candidate_matches_the_oracle_on_two_new_points_over_f7():
    assert [len(sig.new_indices()) for sig in SIG_7_2_5] == [2]
    for sig in SIG_7_2_5:
        for tau in itertools.permutations(outside_0_1(F7), 2):
            lams, _ = check_candidate_by_rationals(sig, F7, tau)
            assert check_candidate(sig, F7, tau) == lams


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(outside_0_1(F49)), min_size=2, max_size=2, unique=True))
def test_check_candidate_matches_the_oracle_on_two_new_points_over_f49(tau):
    for sig in SIG_7_2_5:
        lams, _ = check_candidate_by_rationals(sig, F49, tuple(tau))
        assert check_candidate(sig, F49, tuple(tau)) == lams


def test_build_cover_slot_mapping():
    sig = sig_of(5, 2, (1, 0, 0), new=(1,))
    cover = build_cover(sig, F5, (F5.element(2),))
    assert cover.taus == (F5.element(0), F5.element(1), F5.element(2))
    assert cover.orbits == ((1,), (0,), (1,))
    assert cover.infinity_orbit == (0,)
    with pytest.raises(ValueError):
        build_cover(sig, F5, ())


def test_normalize_epsilons_needs_extension():
    # eps^2 = 2 has no root in F_3; the constant lives in F_9
    eps, target = normalize_epsilons(F3, [F3.element(2)])
    assert target == F9
    assert eps[0] ** 2 == F3.element(2).embed(F9)


def test_normalize_epsilons_rejects_zero():
    with pytest.raises(ValueError):
        normalize_epsilons(F3, [F3.element(0)])


def test_normalize_epsilons_back_substitution():
    lams = [F5.element(2), F5.element(3)]
    eps, target = normalize_epsilons(F5, lams)
    lams_t = [l.embed(target) for l in lams]
    for i in range(2):
        assert eps[i] == eps[(i + 1) % 2].frobenius_inverse() * lams_t[i]


def test_datum_json_round_trip():
    datum = search_field(sig_of(5, 2, (1, 0, 0), new=(1,)), F5)[0]
    again = DeformationDatum.from_json(datum.to_json())
    assert again == datum
    with pytest.raises(ValueError):
        DeformationDatum.from_json({"schema": "nope"})


def test_datum_embedding_preserves_verification():
    datum = search_field(sig_of(5, 2, (1, 0, 0), new=(1,)), F5)[0]
    big = datum.embedded(FieldDescriptor.get(5, 2))
    assert verify_datum(big)["passed"]


def test_frobenius_orbits_partition():
    data = search_field(sig_of(7, 2, (1, 0, 0), new=(1,)), F7)
    orbits = frobenius_orbits(data)
    assert sorted(i for orb in orbits for i in orb) == list(range(len(data)))
    # over the prime field Frobenius is trivial: all orbits are singletons
    assert all(len(orb) == 1 for orb in orbits)


def test_frobenius_orbits_pair_conjugate_data():
    sig = sig_of(5, 4, (1, 0, 0), new=(3,))
    data = search_field(sig, FieldDescriptor.get(5, 2))
    if len(data) < 2:
        pytest.skip("conjugate pair not present in this range")
    orbits = frobenius_orbits(data)
    assert any(len(orb) == 2 for orb in orbits)


def test_no_signature_tau_pair_repeats():
    seen = set()
    for p, m, descriptor in [(3, 2, F3), (5, 2, F5), (7, 2, F7), (3, 4, F3)]:
        for sig in sigdata.enumerate_signatures(p, m, 4):
            for datum in search_field(sig, descriptor):
                key = (sig.points, tuple(t.key() for t in datum.tau))
                assert key not in seen
                seen.add(key)


def test_search_rejects_invalid_signature():
    bad = sigdata.Signature(
        3,
        2,
        (
            sigdata.SigPoint("B0", 0, 1),
            sigdata.SigPoint("B0", 0, 1),
            sigdata.SigPoint("B0", 0, 1),
        ),
    )
    with pytest.raises(ValueError):
        search_field(bad, F3)
