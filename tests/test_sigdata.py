"""Signatures: admissibility, purity, specialty, enumeration, invariants."""

import itertools
import json
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    enumerate_signatures_bruteforce,
    enumerate_signatures_by_validation,
    orbits_by_recursion,
    validate_signature_by_fractions,
)

from defdatum import sigdata
from defdatum.sigdata import (
    SigPoint,
    Signature,
    canonicalize,
    derived_invariants,
    enumerate_signatures,
    is_pure,
    is_special,
    multiplicative_order,
    validate_signature,
)


def sig_of(p, m, base, new=()):
    points = tuple(
        [SigPoint("B0", 0, b) for b in base] + [SigPoint("new", 1, b) for b in new]
    )
    return Signature(p, m, points)


GOLDEN = sig_of(3, 2, (1, 1, 0))


def test_multiplicative_order():
    assert multiplicative_order(3, 2) == 1
    assert multiplicative_order(3, 4) == 2
    assert multiplicative_order(5, 4) == 1
    assert multiplicative_order(2, 7) == 3
    with pytest.raises(ValueError):
        multiplicative_order(3, 6)
    with pytest.raises(ValueError):
        multiplicative_order(2, -3)


def test_golden_signature_is_admissible_and_special():
    assert validate_signature(GOLDEN).passed
    assert is_pure(GOLDEN)
    rep = is_special(GOLDEN)
    assert rep.special and rep.pure and rep.nu_constant
    assert GOLDEN.s == 1
    assert GOLDEN.orbit(0) == (1,)
    assert GOLDEN.orbit(2) == (0,)


def test_orbit_and_local_data():
    sig = sig_of(3, 4, (3, 0, 0), new=(1,))
    assert sig.s == 2
    assert sig.orbit(0) == (3, 1)
    assert sig.orbit(3) == (1, 3)
    assert sig.m_j(0) == 4
    assert sig.m_j(1) == 1
    assert sig.sigma(3, 0) == Fraction(5, 4)
    assert sig.a(3, 0) == 1
    assert sig.a(3, 1) == 3
    assert sig.a_min(3) == 1


def test_validation_failures_are_named():
    bad = sig_of(3, 2, (1, 1, 1))  # sums to 3, not 2
    rep = validate_signature(bad)
    assert not rep.passed
    assert any("sigma" in f or "sum" in f for f in rep.failures)
    wild_new = Signature(3, 2, GOLDEN.points + (SigPoint("new", 1, 0),))
    assert not validate_signature(wild_new).passed
    four_base = Signature(3, 2, GOLDEN.points + (SigPoint("B0", 0, 1),))
    assert not validate_signature(four_base).passed


def test_sigma_one_is_rejected():
    # b0 = 0 with nu = 1 would give sigma = 1
    pts = (SigPoint("B0", 0, 1), SigPoint("B0", 0, 1), SigPoint("B0", 1, 0))
    assert not validate_signature(Signature(3, 2, pts)).passed


def test_purity_is_levelwise():
    pure = sig_of(3, 4, (3, 0, 0), new=(1,))
    assert is_pure(pure)
    # sums to 2m at level 0
    impure = sig_of(3, 4, (3, 3, 2))
    assert not is_pure(impure)


def test_canonicalize_sorts_wild_points_last():
    sig = sig_of(3, 2, (0, 1, 1))
    canon = canonicalize(sig)
    assert [pt.b0 for pt in canon.points] == [1, 1, 0]
    assert canonicalize(canon) == canon


def test_canonicalize_returns_a_canonical_signature_itself():
    # with its cached orbits and validation; a permuted signature gets a
    # new one, sorted as before: base points by descending orbit, then
    # new points
    sigs = enumerate_signatures(5, 4, 5)
    assert sigs
    for sig in sigs:
        report = sig.validation
        assert canonicalize(sig) is sig
        assert canonicalize(sig).validation is report
        for order in itertools.permutations(range(sig.n_points)):
            permuted = Signature(sig.p, sig.m, tuple(sig.points[j] for j in order))
            got = canonicalize(permuted)
            assert got == sig
            assert (got is permuted) == (permuted == sig)


def test_enumerate_golden_case():
    sigs = enumerate_signatures(3, 2, 3)
    assert len(sigs) == 1
    assert sigs[0] == canonicalize(GOLDEN)


def test_enumerate_four_points_includes_two_wild_slots():
    sigs = enumerate_signatures(3, 2, 4)
    patterns = [tuple(pt.b0 for pt in sg.points) for sg in sigs]
    assert (1, 0, 0, 1) in patterns


def test_enumerate_rejects_bad_input():
    with pytest.raises(ValueError):
        enumerate_signatures(3, 6, 3)
    with pytest.raises(ValueError):
        enumerate_signatures(3, 2, 2)


# (p, m, |B|) whose full residue scan, m^3 (m-1)^(|B|-3) tuples, stays cheap
ORACLE_GRID = [
    (p, m, n_points)
    for p in (2, 3, 5, 7)
    for m in range(1, 7)
    for n_points in range(3, 7)
    if gcd(p, m) == 1 and m**3 * (m - 1) ** (n_points - 3) <= 4000
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ORACLE_GRID))
@example((3, 1, 6))
@example((5, 4, 6))
def test_enumerate_matches_bruteforce_oracle(key):
    assert enumerate_signatures(*key) == enumerate_signatures_bruteforce(*key)


# the invariants grid of the benchmark (208 keys, (2, 11, 6) with s = 10
# among them), then larger m and |B|
VALIDATION_GRID = [
    (p, m, n_points)
    for p in (2, 3, 5, 7, 11, 13)
    for m in range(2, 13)
    for n_points in range(3, 7)
    if gcd(p, m) == 1
] + [(5, 24, 5), (11, 40, 5), (13, 12, 8)]


def test_enumerate_matches_validation_oracle():
    assert len(VALIDATION_GRID) == 211
    for key in VALIDATION_GRID:
        assert enumerate_signatures(*key) == enumerate_signatures_by_validation(*key), key


def test_enumerated_signatures_are_canonical():
    for key in VALIDATION_GRID:
        for sig in enumerate_signatures(*key):
            assert sig == canonicalize(sig), (key, sig)


def test_enumerate_raises_when_a_survivor_fails_validation(monkeypatch):
    # a survivor of the packed test that is not admissible is a fault of
    # the test, not a candidate to drop
    monkeypatch.setattr(
        sigdata, "validate_signature", lambda sig: sigdata.ValidationReport(("planted",))
    )
    with pytest.raises(ArithmeticError, match="planted"):
        enumerate_signatures(3, 2, 4)


@st.composite
def packing_cases(draw):
    """(p, m, n_points, residues): p <= 13 prime to m <= 60, at most n_points residues."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    m = draw(st.integers(1, 60).filter(lambda m: m % p))
    n_points = draw(st.integers(1, 10))
    return p, m, n_points, draw(st.lists(st.integers(0, m - 1), max_size=n_points))


def _orbit(p, m, b):
    out = []
    for _ in range(multiplicative_order(p, m)):
        out.append(b)
        b = b * p % m
    return tuple(out)


def _unpack(value, p, m, n_points):
    """Slot i of value, slot 0 the high one, in the documented width."""
    s, w = multiplicative_order(p, m), (n_points * m).bit_length()
    assert value >> (s * w) == 0
    return [(value >> (w * (s - 1 - i))) & ((1 << w) - 1) for i in range(s)]


@settings(max_examples=200, deadline=None)
@given(packing_cases())
@example((2, 11, 5, [1, 3, 7]))  # s = 10
@example((2, 11, 10, [10] * 10))  # the largest level sums
@example((13, 60, 10, [59] * 10))
def test_packed_sum_unpacks_to_the_level_sums(case):
    p, m, n_points, residues = case
    packed, target = sigdata._packed_orbits(p, m, n_points)
    orbits = [_orbit(p, m, b) for b in residues]
    s = multiplicative_order(p, m)
    expected = [sum(orbit[i] for orbit in orbits) for i in range(s)]
    assert _unpack(sum(packed[b] for b in residues), p, m, n_points) == expected
    assert _unpack(target, p, m, n_points) == [m] * s


@settings(max_examples=100, deadline=None)
@given(packing_cases())
@example((2, 11, 5, []))  # s = 10
def test_packed_order_is_the_orbit_order(case):
    p, m, n_points, _ = case
    packed, _ = sigdata._packed_orbits(p, m, n_points)
    orbits = [_orbit(p, m, b) for b in range(m)]
    for a in range(m):
        for b in range(m):
            assert (packed[a] < packed[b]) == (orbits[a] < orbits[b]), (a, b)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([(3, 2), (3, 4), (5, 2), (5, 4), (7, 2), (7, 3)]),
    st.integers(3, 5),
)
def test_enumerated_signatures_satisfy_the_identities(pm, n_points):
    p, m = pm
    for sig in enumerate_signatures(p, m, n_points):
        s = sig.s
        for i in range(s):
            assert sum(sig.sigma(j, i) - 1 for j in range(sig.n_points)) == -2
        for j in range(sig.n_points):
            orbit = sig.orbit(j)
            for i in range(s):
                assert orbit[(i + 1) % s] == (p * orbit[i]) % m
        rep = is_special(sig)
        assert rep.special
        assert rep.pure and rep.nu_constant  # specialty forces both


def test_is_special_reuses_the_enumerated_verdict(monkeypatch):
    sigs = enumerate_signatures(5, 4, 5)
    calls = []
    monkeypatch.setattr(sigdata, "validate_signature", calls.append)
    assert all(is_special(sig).special for sig in sigs)
    assert calls == []


# Fraction forms of the integer identities, oracles for the tests below


def _a_by_fractions(sig, j, i):
    val = sig.m_j(j) * (sig.sigma(j, i) - sig.points[j].nu)
    assert val.denominator == 1
    return int(val)


def _is_pure_by_fractions(sig):
    return all(
        sum(sig.sigma(j, i) - sig.points[j].nu for j in range(sig.n_points)) == 1
        for i in range(sig.s)
    )


def _is_special_by_fractions(sig):
    report = validate_signature_by_fractions(sig)
    b0 = sig.b0_indices()
    special = report.passed and len(b0) == 3
    pure = _is_pure_by_fractions(sig) if special else False
    nu_constant = all(
        int(sig.sigma(j, i)) == sig.points[j].nu
        for j in range(sig.n_points)
        for i in range(sig.s)
    )
    return sigdata.SpecialReport(special and pure and nu_constant, b0, pure, nu_constant)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:  # p not invertible mod m
        return ("ValueError", str(exc))


def assert_integer_forms_match_fractions(sig):
    assert validate_signature(sig) == validate_signature_by_fractions(sig)
    assert _outcome(is_pure, sig) == _outcome(_is_pure_by_fractions, sig)
    assert _outcome(is_special, sig) == _outcome(_is_special_by_fractions, sig)
    if gcd(sig.p, sig.m) != 1:
        with pytest.raises(ValueError):
            sig.a_min(0)
        return
    for j in range(sig.n_points):
        assert sig.a_min(j) == min(_a_by_fractions(sig, j, i) for i in range(sig.s))
        for i in range(2 * sig.s):
            assert sig.a(j, i) == _a_by_fractions(sig, j, i)


@st.composite
def malformed_signatures(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    m = draw(st.integers(1, 12))
    points = draw(st.lists(
        st.builds(
            SigPoint,
            st.sampled_from(["B0", "new", "other"]),
            st.integers(-1, 2),
            st.integers(-1, m),
        ),
        min_size=3,
        max_size=6,
    ))
    return Signature(p, m, tuple(points))


@settings(max_examples=300, deadline=None)
@given(malformed_signatures())
@example(Signature(3, 6, GOLDEN.points))  # p not invertible mod m
@example(sig_of(3, 2, (1, 1, 1)))  # level sum 3/2 - 3 = -3/2
@example(Signature(3, 4, (SigPoint("B0", -1, 1),) + GOLDEN.points[1:]))  # nu < 0 < b
@example(Signature(5, 4, (SigPoint("B0", 2, 3), SigPoint("new", 1, 0), SigPoint("x", 0, 4))))
def test_integer_identities_match_fractions_on_malformed_signatures(sig):
    assert_integer_forms_match_fractions(sig)


def test_integer_identities_match_fractions_on_enumerated_signatures():
    count = 0
    for p in (2, 3, 5, 7, 11):
        for m in range(1, 10):
            if gcd(p, m) != 1:
                continue
            for n_points in range(3, 7):
                for sig in enumerate_signatures(p, m, n_points):
                    assert_integer_forms_match_fractions(sig)
                    count += 1
    assert count > 200


def _rows_by_recursion(sig):
    orbits = orbits_by_recursion(sig)
    level_sums = tuple(sum(orbit[i] for orbit in orbits) for i in range(sig.s))
    return orbits, level_sums, tuple(sig.m // gcd(sig.m, pt.b0 % sig.m) for pt in sig.points)


def _rows(sig):
    return sig.orbits, sig.level_sums, tuple(sig.m_j(j) for j in range(sig.n_points))


def assert_rows_match_recursion(sig):
    # each side on its own instance, so neither reads the other's cache
    fresh = Signature(sig.p, sig.m, sig.points)
    assert _outcome(_rows, sig) == _outcome(_rows_by_recursion, fresh)
    assert validate_signature(sig) == validate_signature_by_fractions(fresh)


@settings(max_examples=300, deadline=None)
@given(malformed_signatures())
@example(Signature(3, 6, GOLDEN.points))  # p not invertible mod m
@example(Signature(7, 5, (SigPoint("B0", 0, 5),) + GOLDEN.points[1:]))  # b0 = m
@example(Signature(7, 5, (SigPoint("B0", 0, -1),) + GOLDEN.points[1:]))  # b0 < 0
@example(Signature(7, 5, (SigPoint("new", 1, 0),) + GOLDEN.points))  # sigma = 1, s = 4
@example(Signature(7, 5, (SigPoint("x", 2, 3),) + GOLDEN.points))  # unknown role, nu = 2
def test_rows_match_recursion_on_malformed_signatures(sig):
    assert_rows_match_recursion(sig)


def test_rows_match_recursion_on_the_validation_grid():
    for key in VALIDATION_GRID:
        for sig in enumerate_signatures(*key):
            assert_rows_match_recursion(sig)


README_SIGNATURE = json.loads(
    (Path(__file__).parent / "data" / "search-p3-m2-points3-r1.json").read_text()
)["results"][0]["signature"]


def test_rows_are_built_for_the_residues_a_signature_holds():
    # the README search datum's signature with m = 20011 and no s: 4002
    # levels, three points, two distinct residues
    obj = {**README_SIGNATURE, "m": 20011}
    del obj["s"]
    sig = Signature.from_json(obj)
    sigdata.orbit_row.cache_clear()
    report = validate_signature(sig)
    assert sigdata.orbit_row.cache_info().misses <= sig.n_points
    assert sig.s == 4002 and len(report.failures) == sig.s
    assert report == validate_signature_by_fractions(Signature.from_json(obj))


def test_derived_data_is_cached_per_instance():
    sig = sig_of(3, 4, (3, 0, 0), new=(1,))
    assert sig.orbits is sig.orbits and sig.orbit(3) is sig.orbits[3]
    assert sig == sig_of(3, 4, (3, 0, 0), new=(1,))
    assert hash(sig) == hash(sig_of(3, 4, (3, 0, 0), new=(1,)))
    not_invertible = Signature(3, 6, GOLDEN.points)  # s is lazy: this builds
    assert validate_signature(not_invertible).failures == ("p not invertible mod m",)


@pytest.mark.parametrize("m", [-1, -2])
def test_validate_names_a_nonpositive_m(m):
    # gcd(3, m) = 1, so the failure is m's own, not p's; ord_m(3) is undefined
    sig = Signature(3, m, GOLDEN.points)
    assert validate_signature(sig).failures == ("m must be a positive integer",)
    assert validate_signature_by_fractions(sig) == validate_signature(sig)


def test_derived_invariants_golden():
    inv = derived_invariants(canonicalize(GOLDEN))
    assert inv["genus"] == 0
    assert inv["isotypic_degrees"] == [-1]
    assert inv["isotypic_cohomology"] == [(0, 0)]
    assert inv["tangent_dimension"] == 0


def test_derived_invariants_tangent_accounting():
    for sig in enumerate_signatures(5, 4, 5):
        inv = derived_invariants(sig)
        assert inv["tangent_dimension"] == sig.n_points - 3 == len(sig.new_indices())
        assert all(mult == 1 for mult in inv["torsion_multiplicities"].values())


def test_signature_json_round_trip():
    sig = canonicalize(sig_of(3, 4, (3, 0, 0), new=(1,)))
    assert Signature.from_json(sig.to_json()) == sig
    obj = sig.to_json()
    obj["s"] = 5
    with pytest.raises(ValueError):
        Signature.from_json(obj)
