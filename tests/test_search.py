"""Branch-point search, eigenform constants and the verification battery."""

import dataclasses
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    check_candidate_by_rationals,
    is_cartier_fixed_by_rationals,
    level_constant_by_full_product,
    omega_orders_by_ord_at_critical,
    phi_basis,
    search_field_by_full_scan,
)

from defdatum import cartier, search, sigdata
from defdatum.algebra import FieldDescriptor
from defdatum.cartier import KummerCover
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


@pytest.mark.parametrize("p,m", PM + [(p, m) for p in (11, 13) for m in (2, 3, 4)])
def test_check_candidate_matches_the_oracle_on_every_tau(p, m):
    # every one-new-point signature, every tau of every F_q with q <= 49;
    # at p = 11 and 13 (F_p only) the p-th-power split of u is deepest
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
    # the orbit scan checks one tau of the pair and emits its image
    sig = sig_of(5, 4, (1, 0, 0), new=(3,))
    data = search_field(sig, FieldDescriptor.get(5, 2))
    assert len(data) == 2
    assert frobenius_orbits(data) == [[0, 1]]
    first, second = data
    assert second.tau == tuple(t.frobenius() for t in first.tau)
    assert second.lam == tuple(l.frobenius() for l in first.lam)
    for datum in data:
        assert verify_datum(datum)["passed"]


# the benchmark's scan configurations (p, m, points, r), then larger ones
SCAN_CONFIGS = [
    (3, 2, 3, 1),
    (2, 3, 4, 2),
    (3, 2, 4, 2),
    (3, 2, 4, 4),
    (2, 5, 4, 4),
    (5, 2, 4, 1),
    (5, 2, 4, 2),
    (5, 2, 4, 3),
    (7, 2, 5, 1),
    (7, 2, 4, 1),
    (7, 2, 4, 2),
    (11, 2, 4, 1),
    (13, 2, 4, 1),
]


@pytest.mark.parametrize(
    "p,m,points,r", SCAN_CONFIGS + [(5, 2, 5, 2), (7, 3, 4, 2), (5, 4, 4, 2), (7, 2, 5, 2)]
)
def test_search_matches_the_full_scan(p, m, points, r):
    # three of the four (7, 2, 5, 2) data are pairs (a, a^7), which
    # Frobenius maps to themselves re-sorted
    assert_search_matches_the_full_scan(p, m, points, r)


def test_every_scanned_omega_is_cartier_fixed():
    # the benchmark's scan check: the general Cartier test on omega of
    # every datum found, and its oracle through normalized rational functions
    data = [
        datum
        for p, m, points, r in SCAN_CONFIGS
        for sig in sigdata.enumerate_signatures(p, m, points)
        for datum in search_field(sig, FieldDescriptor.get(p, r))
    ]
    assert len(data) == 18
    omegas = [cartier.omega_combination(dt) for dt in data]
    assert all(cartier.is_cartier_fixed(omega) for omega in omegas)
    assert all(is_cartier_fixed_by_rationals(omega) for omega in omegas)


SCAN_SIGNATURES = [
    (FieldDescriptor.get(p, r), sig)
    for p, m, points, r in SCAN_CONFIGS
    for sig in sigdata.enumerate_signatures(p, m, points)
]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_level_constant_matches_the_full_product_on_scan_covers(data):
    # every level of the cover of a SCAN_CONFIGS signature on random tau
    d, sig = data.draw(st.sampled_from(SCAN_SIGNATURES))
    k = len(sig.new_indices())
    tau = data.draw(
        st.lists(st.sampled_from(outside_0_1(d)), min_size=k, max_size=k, unique=True)
    )
    cover = build_cover(sig, d, tuple(tau))
    for level in range(cover.s):
        assert cartier.level_constant(cover, level) == level_constant_by_full_product(cover, level)


def assert_search_matches_the_full_scan(p, m, points, r):
    """The same documents in the same order, whether every tuple is
    checked or one per Frobenius orbit; returns the number of data."""
    descriptor = FieldDescriptor.get(p, r)
    count = 0
    for sig in sigdata.enumerate_signatures(p, m, points):
        got = [dt.to_json() for dt in search_field(sig, descriptor)]
        expected = [dt.to_json() for dt in search_field_by_full_scan(sig, descriptor)]
        assert json.dumps(got) == json.dumps(expected)
        count += len(got)
    return count


@pytest.mark.parametrize("p,m,points,r", [(5, 2, 4, 2), (5, 2, 4, 3), (3, 4, 4, 2), (7, 2, 5, 2)])
def test_orbit_images_get_frobenius_constants_and_their_own_eps(monkeypatch, p, m, points, r):
    # every orbit of two or more that the search finds above has lambda = 1;
    # a stand-in check whose lambda is a power of the product of the new
    # points (Frobenius-equivariant, symmetric in the slots) exercises
    # lambda^(p^k) and the eps recomputed per image.  Its lambda is a
    # (p^s - 1)-th power, so eps lies in the field and needs no root scan
    def stand_in(sig, descriptor, tau):
        prod = descriptor.one()
        for t in tau:
            prod = prod * t
        if prod.multiplicative_order() % 2:
            return None
        return [prod ** ((i + 1) * (p**sig.s - 1)) for i in range(sig.s)]

    monkeypatch.setattr(search, "check_candidate", stand_in)
    assert assert_search_matches_the_full_scan(p, m, points, r) > r


def assert_frobenius_carries_the_check(sig, descriptor, tau):
    """check_candidate at tau^p is None iff at tau, else lambda^p; returns
    the constants at tau."""
    lams = check_candidate(sig, descriptor, tau)
    image = check_candidate(sig, descriptor, tuple(t.frobenius() for t in tau))
    if lams is None:
        assert image is None
    else:
        assert image == [l.frobenius() for l in lams]
    return lams


# (p, m, points, r): one new point over F_4 ... F_125, two over F_49
LEMMA_CASES = [
    (2, 3, 4, 2),
    (2, 5, 4, 4),
    (3, 2, 4, 3),
    (3, 4, 4, 2),
    (3, 4, 4, 4),
    (5, 2, 4, 3),
    (5, 4, 4, 2),
    (7, 3, 4, 2),
    (7, 2, 5, 2),
]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_frobenius_carries_the_candidate_check(data):
    p, m, points, r = data.draw(st.sampled_from(LEMMA_CASES))
    descriptor = FieldDescriptor.get(p, r)
    sig = data.draw(st.sampled_from(sigdata.enumerate_signatures(p, m, points)))
    k = len(sig.new_indices())
    tau = data.draw(
        st.lists(st.sampled_from(outside_0_1(descriptor)), min_size=k, max_size=k, unique=True)
    )
    assert_frobenius_carries_the_check(sig, descriptor, tuple(tau))


@pytest.mark.parametrize("p,m,points,r", [(5, 4, 4, 2), (7, 3, 4, 2), (5, 2, 5, 2)])
def test_frobenius_carries_the_candidate_check_on_every_tuple(p, m, points, r):
    # random tau rarely pass the check; here every tuple is tried, hits included
    descriptor = FieldDescriptor.get(p, r)
    hits = 0
    for sig in sigdata.enumerate_signatures(p, m, points):
        for tau in itertools.permutations(outside_0_1(descriptor), len(sig.new_indices())):
            hits += assert_frobenius_carries_the_check(sig, descriptor, tau) is not None
    assert hits


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


DATA = Path(__file__).parent / "data"


def stored_data():
    """Every datum of the search, rigidity and verify goldens, once each."""
    docs = {}
    for path in sorted(DATA.glob("search-*.json")):
        for block in json.loads(path.read_text())["results"]:
            for entry in block["data"]:
                doc = {k: v for k, v in entry.items() if k != "verification"}
                docs.setdefault(json.dumps(doc, sort_keys=True), doc)
    for pattern in ("rigidity-*.json", "verify-*.json"):
        for path in sorted(DATA.glob(pattern)):
            for entry in json.loads(path.read_text())["results"]:
                docs.setdefault(json.dumps(entry["datum"], sort_keys=True), entry["datum"])
    return [DeformationDatum.from_json(doc) for doc in docs.values()]


STORED = stored_data()


def assert_verdicts_match_the_oracles(datum):
    """verify_datum's two Cartier verdicts against ``is_cartier_fixed``,
    which agrees with ``is_cartier_fixed_by_rationals`` on omega and on
    every phi_l, and its closed-form orders against ``ord_at_critical``."""
    checks = verify_datum(datum)
    assert search.omega_orders(datum) == omega_orders_by_ord_at_critical(datum)
    omega = cartier.omega_combination(datum)
    phis = phi_basis(datum)
    fixed = [cartier.is_cartier_fixed(form) for form in (omega, *phis)]
    assert fixed == [is_cartier_fixed_by_rationals(form) for form in (omega, *phis)]
    assert checks["cartier_fixed"] == fixed[0]
    assert checks["phi_fixed"] == all(fixed[1:])
    return checks


def test_stored_data_cover_extension_fields_and_failures():
    # phi rows live in F_{p^lcm(r, s)}: some stored data need kappa embedded
    assert len(STORED) >= 25
    assert any(dt.field_with_roots() != dt.descriptor for dt in STORED)
    assert any(dt.signature.s >= 3 for dt in STORED)
    failing = [dt for dt in STORED if not verify_datum(dt)["cartier_fixed"]]
    assert failing


def test_level_constant_matches_the_full_product_on_stored_covers():
    # every level of every stored cover, most with a constant; then with a
    # point whose step exponent is p (p - 1) at every level: R and S are
    # unchanged, but H gains (x - tau)^(p - 1), which g lacks
    constants = 0
    for datum in STORED:
        cover = datum.cover
        d, p, m = cover.descriptor, cover.descriptor.p, cover.m
        tau = next(t for t in d.elements() if t not in cover.taus)
        extra = KummerCover(
            d, m, cover.taus + (tau,), cover.orbits + ((-p * m,) * cover.s,), cover.infinity_orbit
        )
        assert extra.step_exponents(0)[-1] == p * (p - 1)
        for level in range(cover.s):
            kappa = cartier.level_constant(cover, level)
            assert kappa == level_constant_by_full_product(cover, level)
            constants += bool(kappa)
            assert not cartier.level_constant(extra, level)
            assert not level_constant_by_full_product(extra, level)
    assert constants > len(STORED)


@pytest.mark.parametrize("index", range(len(STORED)))
def test_cartier_verdicts_match_is_cartier_fixed_on_stored_data(index):
    assert_verdicts_match_the_oracles(STORED[index])


def altered(datum, kind, c, t):
    """The datum with lambda scaled by c ("scale_lambda"), its first new
    point moved to t ("move_tau"), or eps_kind alone scaled by c (an int)."""
    if kind == "scale_lambda":
        return dataclasses.replace(datum, lam=tuple(l * c for l in datum.lam))
    if kind == "move_tau":
        return dataclasses.replace(datum, tau=(t,) + datum.tau[1:])
    eps = list(datum.epsilon)
    eps[kind] = eps[kind] * c
    return dataclasses.replace(datum, epsilon=tuple(eps))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_cartier_verdicts_match_is_cartier_fixed_on_altered_data(data):
    # scaled lambda keeps both verdicts, a scaled eps_i breaks omega and
    # phi, and a moved tau leaves some level without constant
    datum = data.draw(st.sampled_from(STORED))
    d = datum.descriptor
    kinds = ["scale_lambda", *range(datum.signature.s)]
    free = [t for t in outside_0_1(d) if t not in datum.tau]
    if datum.tau and free:
        kinds.append("move_tau")
    kind = data.draw(st.sampled_from(kinds))
    c = data.draw(st.sampled_from([e for e in d.elements() if not e.is_zero()]))
    t = data.draw(st.sampled_from(free)) if kind == "move_tau" else None
    assert_verdicts_match_the_oracles(altered(datum, kind, c, t))


def test_moved_tau_leaves_a_level_without_constant():
    datum = search_field(sig_of(5, 2, (1, 0, 0), new=(1,)), F5)[0]
    moved = altered(datum, "move_tau", None, F5.element(3))
    assert not cartier.level_constant(moved.cover, 0)
    checks = assert_verdicts_match_the_oracles(moved)
    assert not checks["cartier_fixed"] and not checks["phi_fixed"]


def test_the_cover_is_built_once_per_datum(monkeypatch):
    datum = DeformationDatum.from_json(STORED[0].to_json())
    calls = []
    real = search.build_cover
    monkeypatch.setattr(search, "build_cover", lambda *a: calls.append(a) or real(*a))
    assert datum.cover is datum.cover
    assert verify_datum(datum)["passed"]
    assert len(calls) == 1
    big = datum.embedded(FieldDescriptor.get(datum.descriptor.p, 2 * datum.descriptor.r))
    assert big.cover is not datum.cover
    assert big.cover == datum.cover.embed(big.descriptor)
