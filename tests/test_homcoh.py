"""Linear algebra mod p, Cech and group cohomology, Picard invariants."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defdatum import homcoh
from defdatum.homcoh import (
    CochainComplex,
    EnumerationBudgetExceeded,
    GradedHModule,
    cech_line_bundle,
    cohomology_dims,
    coinduced_module,
    group_cohomology,
    pic_invariants,
    rank_mod_p,
    solve_mod_p,
    verify_resolution_homotopy,
)


def brute_rank(A, p):
    """Rank by enumerating all column combinations (oracle for tiny sizes)."""
    A = np.asarray(A) % p
    rows, cols = A.shape
    images = set()
    for v in itertools.product(range(p), repeat=cols):
        if cols:
            images.add(tuple((A @ np.array(v)) % p))
        else:
            images.add(tuple([0] * rows))
    n = len(images)
    k = 0
    while p**k < n:
        k += 1
    return k


@settings(max_examples=40)
@given(
    st.integers(0, 3),
    st.integers(0, 3),
    st.randoms(use_true_random=False),
)
def test_rank_matches_enumeration(rows, cols, rnd):
    p = 3
    A = np.array(
        [[rnd.randrange(p) for _ in range(cols)] for _ in range(rows)],
        dtype=np.int64,
    ).reshape(rows, cols)
    assert rank_mod_p(A, p) == brute_rank(A, p)


@settings(max_examples=40)
@given(st.integers(1, 3), st.integers(1, 3), st.randoms(use_true_random=False))
def test_solve_mod_p_solves_or_proves_none(rows, cols, rnd):
    p = 5
    A = np.array(
        [[rnd.randrange(p) for _ in range(cols)] for _ in range(rows)],
        dtype=np.int64,
    )
    b = np.array([rnd.randrange(p) for _ in range(rows)], dtype=np.int64)
    x = solve_mod_p(A, b, p)
    if x is not None:
        assert np.array_equal((A @ x) % p, b % p)
    else:
        # no x exists at all
        for v in itertools.product(range(p), repeat=cols):
            assert not np.array_equal((A @ np.array(v)) % p, b % p)


def test_complex_rejects_nonzero_square():
    d0 = np.array([[1]], dtype=np.int64)
    d1 = np.array([[1]], dtype=np.int64)
    with pytest.raises(ValueError):
        CochainComplex(3, (1, 1, 1), (d0, d1))


def test_cohomology_dims_two_term():
    D = np.array([[1, 2], [2, 4]], dtype=np.int64)  # rank 1 mod 5
    C = CochainComplex(5, (2, 2), (D,))
    assert cohomology_dims(C) == [1, 1]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("d", range(-8, 9))
def test_cech_matches_riemann_roch_on_the_line(p, d):
    h0, h1 = cech_line_bundle(p, d)
    assert h0 == max(d + 1, 0)
    assert h1 == max(-d - 1, 0)
    assert h0 - h1 == d + 1  # Euler characteristic
    # the memo agrees with the complex itself, on a miss and on a hit
    assert cech_line_bundle.__wrapped__(p, d) == (h0, h1) == cech_line_bundle(p, d)


def test_cech_window_stability():
    for window in (8, 12, 20):
        assert cech_line_bundle(3, -4, window=window) == (0, 3)
        assert cech_line_bundle.__wrapped__(3, -4, window=window) == (0, 3)


def test_cochain_block_limit_is_checked_before_any_basis():
    p3 = coinduced_module(3, 2)  # the largest block that is built, 6561 x 729
    assert 6561 * 729 <= homcoh.COCHAIN_BLOCK_LIMIT
    assert group_cohomology(p3, 2) == [1, 0, 0]
    with pytest.raises(homcoh.CochainBlockTooLarge, match="390625 x 15625"):
        homcoh.group_cochain_complex(coinduced_module(5, 2), 2)


@pytest.mark.parametrize("p,s", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_coinduced_cohomology_vanishes(p, s):
    M = coinduced_module(p, s)
    dims = group_cohomology(M, 2)
    assert dims[0] == M.invariant_dim_at_zero()
    assert dims[1] == 0
    assert dims[2] == 0


def test_trivial_module_cohomology():
    # a diagonalizable group has no higher cohomology even on F_p
    for p, s in [(2, 1), (3, 1), (2, 2)]:
        M = GradedHModule.trivial_H(p, s, {tuple([0] * s): 1})
        dims = group_cohomology(M, 1)
        assert dims == [1, 0]


def test_nontrivial_h_action_cuts_invariants():
    # H of order 2 negating the fiber: no invariants in degree zero
    M = GradedHModule(3, 1, 2, ((1,),), {(0,): 1, (1,): 1, (2,): 1}, {((0,), 0): 2})
    assert M.invariant_dim_at_zero() == 0
    assert group_cohomology(M, 1)[0] == 0


def test_module_validation():
    with pytest.raises(ValueError):
        GradedHModule(2, 1, 2, ((1,),), {(0,): 1}, {})  # |H| not prime to p
    with pytest.raises(ValueError):
        # scalar of order 4 in F_5 under H of order 2
        GradedHModule(5, 1, 2, ((1,),), {(0,): 1}, {((0,), 0): 2})


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2)])
def test_resolution_homotopy(p, s):
    M = coinduced_module(p, s)
    assert verify_resolution_homotopy(M, 2)


def test_resolution_homotopy_negative_control():
    # dropping the last face breaks s.d + d.s = id
    def broken(M, n, v):
        out = {}
        for key, coeff in v.items():
            *phis, b = key
            for nu in range(n + 1):
                dup = (*phis[:nu], phis[nu], phis[nu], *phis[nu + 1 :], b)
                out[dup] = (out.get(dup, 0) + (-1) ** nu * coeff) % M.p
        return {k: c for k, c in out.items() if c}

    M = coinduced_module(2, 1)
    assert not verify_resolution_homotopy(M, 1, differential=broken)


def four_term(p, sizes, mats):
    return CochainComplex(p, sizes, mats, start_degree=-1)


def random_one_live_complex(rnd, p):
    sizes = (rnd.randint(0, 2), rnd.randint(1, 3), rnd.randint(1, 3), rnd.randint(0, 2))
    live = rnd.randrange(3)
    mats = []
    for i in range(3):
        rows, cols = sizes[i + 1], sizes[i]
        M = np.zeros((rows, cols), dtype=np.int64)
        if i == live:
            for a in range(rows):
                for b in range(cols):
                    M[a, b] = rnd.randrange(p)
        mats.append(M)
    return four_term(p, sizes, tuple(mats))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3]), st.randoms(use_true_random=False))
def test_pic_invariants_match_cohomology(p, rnd):
    cx = random_one_live_complex(rnd, p)
    inv = pic_invariants(cx)
    dims = cohomology_dims(cx)
    assert len(inv.pi0) == dims[2]
    assert len(inv.aut) == dims[1]
    assert all(f == p for f in inv.pi0 + inv.aut)


def test_pic_budget_guard():
    sizes = (0, 8, 1, 0)
    mats = (
        np.zeros((8, 0), dtype=np.int64),
        np.zeros((1, 8), dtype=np.int64),
        np.zeros((0, 1), dtype=np.int64),
    )
    with pytest.raises(EnumerationBudgetExceeded):
        pic_invariants(four_term(3, sizes, mats))
