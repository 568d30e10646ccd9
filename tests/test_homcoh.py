"""Linear algebra mod p, Cech and group cohomology, Picard invariants."""

import itertools
import time
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    SparseCochainComplex,
    cochain_basis,
    group_cochain_complex,
    sparse_rank,
    verify_resolution_homotopy_per_key,
)

from defdatum import homcoh
from defdatum.homcoh import (
    CochainComplex,
    EnumerationBudgetExceeded,
    GradedHModule,
    cech_line_bundle,
    cohomology_dims,
    coinduced_module,
    group_cochain_blocks,
    group_cohomology,
    pic_invariants,
    rank_mod_p,
    solve_mod_p,
    verify_resolution_homotopy,
)


def apply(A, v, p):
    """A v mod p for a row list A."""
    return [sum(a * x for a, x in zip(row, v, strict=True)) % p for row in A]


def brute_rank(A, p, cols):
    """Rank by enumerating all column combinations (oracle for tiny sizes)."""
    images = {tuple(apply(A, v, p)) for v in itertools.product(range(p), repeat=cols)}
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
    A = [[rnd.randrange(p) for _ in range(cols)] for _ in range(rows)]
    assert rank_mod_p(A, p) == brute_rank(A, p, cols)


@settings(max_examples=40)
@given(st.integers(1, 3), st.integers(1, 3), st.randoms(use_true_random=False))
def test_solve_mod_p_solves_or_proves_none(rows, cols, rnd):
    p = 5
    A = [[rnd.randrange(p) for _ in range(cols)] for _ in range(rows)]
    b = [rnd.randrange(p) for _ in range(rows)]
    x = solve_mod_p(A, b, p)
    if x is not None:
        assert apply(A, x, p) == b
    else:
        # no x exists at all
        for v in itertools.product(range(p), repeat=cols):
            assert apply(A, v, p) != b


def test_rank_and_solve_on_empty_matrices():
    # 0 rows: rank 0, and the empty system is solved by the empty vector
    assert rank_mod_p([], 3) == 0
    assert solve_mod_p([], [], 3) == []
    # 0 columns: rank 0; only b = 0 is reachable, by the empty vector
    assert rank_mod_p([[], [], []], 3) == 0
    assert solve_mod_p([[], [], []], [0, 3, -6], 3) == []
    assert solve_mod_p([[], [], []], [0, 1, 0], 3) is None


def test_rank_and_solve_refuse_mismatched_lengths():
    A = [[1, 0], [0, 1]]
    assert solve_mod_p(A, [2, 3], 5) == [2, 3]
    for b in ([1], [1, 2, 3]):
        with pytest.raises(ValueError):
            solve_mod_p(A, b, 5)
    with pytest.raises(ValueError):
        solve_mod_p([], [1], 5)
    with pytest.raises(ValueError, match="unequal length"):
        rank_mod_p([[1, 2], [1]], 3)
    with pytest.raises(ValueError, match="unequal length"):
        solve_mod_p([[1, 2], [1]], [0, 0], 3)


def test_complex_rejects_wrong_shapes():
    CochainComplex(3, (2, 1), ([[1, 2]],))
    with pytest.raises(ValueError, match="not 1 x 2"):
        CochainComplex(3, (2, 1), ([[1, 2], [0, 0]],))  # one row too many
    with pytest.raises(ValueError, match="not 1 x 2"):
        CochainComplex(3, (2, 1), ([],))  # no rows
    with pytest.raises(ValueError, match="not 1 x 2"):
        CochainComplex(3, (2, 1), ([[1, 2, 0]],))  # a row too long
    with pytest.raises(ValueError, match="not 2 x 1"):
        CochainComplex(3, (1, 2), ([[1], [1, 0]],))  # a row too long among good ones


def test_complex_rejects_nonzero_square():
    d0 = [[1]]
    d1 = [[1]]
    with pytest.raises(ValueError):
        CochainComplex(3, (1, 1, 1), (d0, d1))


def test_cohomology_dims_two_term():
    D = [[1, 2], [2, 4]]  # rank 1 mod 5
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


def test_cochain_block_limit_is_checked_before_any_basis(monkeypatch):
    # at p = 5 the dense complex needed a 390625 x 15625 block; the block
    # path builds no cochain basis (only the dense oracle in tests/oracles.py
    # does) and ranks only differentials of the K_l, C(n+2, l) x C(n+1, l)
    # for n <= nmax
    shapes = []

    def recording_rank(A, p):
        shapes.append((len(A), len(A[0]) if A else 0))
        return rank_mod_p(A, p)

    monkeypatch.setattr(homcoh, "rank_mod_p", recording_rank)
    assert group_cohomology(coinduced_module(5, 2), 2) == [1, 0, 0]
    limit = max(comb(n + 2, ell) * comb(n + 1, ell) for n in range(3) for ell in range(4))
    assert limit == 6 * 3
    assert shapes
    assert max(rows * cols for rows, cols in shapes) <= limit


def test_group_cohomology_of_O_G_at_p5_in_bounded_time():
    # 0.08 s measured (Python 3.11, 2 cores); the dense complex needed a
    # 390625 x 15625 block here
    t0 = time.perf_counter()
    assert group_cohomology(coinduced_module(5, 2), 2) == [1, 0, 0]
    assert time.perf_counter() - t0 < 0.25


@st.composite
def graded_h_modules(draw):
    """Modules like criterion 4's: trivial or coordinate-swap T, scalars."""
    p = draw(st.sampled_from([2, 3]))
    s = draw(st.integers(1, 2))
    m = draw(st.sampled_from([k for k in (1, 2, 3, 4) if gcd(k, p) == 1]))
    swap = s == 2 and m % 2 == 0 and draw(st.booleans())
    if swap:
        T = ((0, 1), (1, 0))
    else:
        T = tuple(tuple(int(a == b) for b in range(s)) for a in range(s))
    units = list(range(1, p))
    dims, scalars = {}, {}
    for phi in itertools.product(range(p), repeat=s):
        if phi in dims:
            continue
        image = phi[::-1] if swap else phi
        orbit = [phi] if image == phi else [phi, image]
        d = draw(st.integers(0, 2))
        for i in range(d):
            # the scalars around the orbit multiply to an (m/|orbit|)-th root of 1
            cycle = draw(
                st.sampled_from([c for c in units if pow(c, m // len(orbit), p) == 1])
            )
            first = draw(st.sampled_from(units)) if len(orbit) == 2 else cycle
            scalars[(orbit[0], i)] = first
            if len(orbit) == 2:
                scalars[(orbit[1], i)] = cycle * pow(first, p - 2, p) % p
        for psi in orbit:
            dims[psi] = d
    return GradedHModule(p, s, m, T, dims, scalars)


@st.composite
def modules_and_degrees(draw):
    """A ``graded_h_modules`` draw and nmax <= 2, with nmax = 1 at p = 3 and
    s = 2: the dense oracle lists (p^s)^(nmax+2) dim M cochains, and the
    largest modules at p = 3, s = 2, nmax = 2 run as fixed examples."""
    M = draw(graded_h_modules())
    nmax = 1 if (M.p, M.s) == (3, 2) else draw(st.sampled_from([1, 2]))
    return M, nmax


def module_of_dim_2(swap):
    """The largest module ``graded_h_modules`` draws at p = 3, s = 2, m = 4:
    every graded piece of dimension 2 and every scalar 1, so every orbit
    carries an invariant, with T trivial or the coordinate swap."""
    T = ((0, 1), (1, 0)) if swap else ((1, 0), (0, 1))
    return GradedHModule(3, 2, 4, T, dict.fromkeys(itertools.product(range(3), repeat=2), 2), {})


@settings(max_examples=40, deadline=None)
@given(modules_and_degrees())
@example((module_of_dim_2(swap=False), 2))
@example((module_of_dim_2(swap=True), 2))
def test_block_sum_matches_dense_oracle(case):
    M, nmax = case
    C = group_cochain_complex(M, nmax)
    blocks = group_cochain_blocks(M, nmax)
    # degree nmax + 1 of the oracle also holds blocks that start there
    block_dims = [sum(count * K.dims[n] for count, K in blocks) for n in range(nmax + 1)]
    assert block_dims == list(C.dims[: nmax + 1])
    assert group_cohomology(M, nmax) == C.cohomology_dims()[: nmax + 1]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5]).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.integers(1, 6).flatmap(
                lambda cols: st.lists(
                    st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols), max_size=6
                )
            ),
        )
    )
)
def test_sparse_rank_matches_dense_rank(case):
    # the dense oracle's rank, taken over sparse columns
    p, rows = case
    width = len(rows[0]) if rows else 0
    columns = [{i: row[j] for i, row in enumerate(rows)} for j in range(width)]
    assert sparse_rank(columns, p) == rank_mod_p(rows, p)


def test_sparse_complex_rejects_nonzero_square():
    SparseCochainComplex(3, (1, 1, 1), ([{0: 1}], [{}]))
    with pytest.raises(ValueError, match="d1 . d0"):
        SparseCochainComplex(3, (1, 1, 1), ([{0: 1}], [{0: 2}]))


def _differential_with(M, n, v, faces):
    """The cochain differential restricted to the faces kept by ``faces``."""
    out = {}
    for key, coeff in v.items():
        *phis, b = key
        terms = [((tuple([0] * M.s), *phis, b), 1)]
        for nu in range(1, n + 1):
            dup = (*phis[: nu - 1], phis[nu - 1], phis[nu - 1], *phis[nu:], b)
            terms.append((dup, (-1) ** nu))
        terms.append(((*phis, b[0], b), (-1) ** (n + 1)))
        for face, (key2, sign) in enumerate(terms):
            if faces(face, n):
                out[key2] = (out.get(key2, 0) + sign * coeff) % M.p
    return {k: c for k, c in out.items() if c}


def test_block_differential_negative_controls(monkeypatch):
    M = coinduced_module(3, 1)
    b = ((1,), 0)
    word = ((0,), (1,))
    K = homcoh._block_complex(M, word, b, 2)
    assert cohomology_dims(K)[:3] == [0, 0, 0]
    zero = homcoh._block_complex(M, ((0,),), ((0,), 0), 2)
    assert cohomology_dims(zero)[:3] == [1, 0, 0]
    # dropping the first duplicated face breaks d.d = 0 on the block
    with monkeypatch.context() as mp:
        mp.setattr(
            homcoh,
            "_cochain_differential",
            lambda M, n, v: _differential_with(M, n, v, lambda f, n: f != 1),
        )
        with pytest.raises(ValueError, match="d1 . d0 != 0"):
            homcoh._block_complex(M, word, b, 2)
    # dropping the last face leaves a complex (the decalage), with other cohomology
    with monkeypatch.context() as mp:
        mp.setattr(
            homcoh,
            "_cochain_differential",
            lambda M, n, v: _differential_with(M, n, v, lambda f, n: f != n + 1),
        )
        decalage = homcoh._block_complex(M, ((0,),), ((0,), 0), 2)
    assert cohomology_dims(decalage)[:3] == [0, 0, 0]

    # a face that changes the collapsed word leaves the block
    def leaves(M, n, v):
        return {(*key[:-1], (0,), key[-1]): 1 for key in v}

    monkeypatch.setattr(homcoh, "_cochain_differential", leaves)
    with pytest.raises(ValueError, match="out of the block"):
        homcoh._block_complex(M, word, b, 2)


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


@pytest.mark.parametrize("p,s", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_resolution_homotopy(p, s):
    M = coinduced_module(p, s)
    assert verify_resolution_homotopy(M, 2)
    assert verify_resolution_homotopy_per_key(M, 2)


def broken(M, n, v):
    """The resolution differential with its last face dropped."""
    out = {}
    for key, coeff in v.items():
        *phis, b = key
        for nu in range(n + 1):
            dup = (*phis[:nu], phis[nu], phis[nu], *phis[nu + 1 :], b)
            out[dup] = (out.get(dup, 0) + (-1) ** nu * coeff) % M.p
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("p,s", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_resolution_homotopy_negative_control(monkeypatch, p, s):
    # dropping the last face breaks s.d + d.s = id, on every key and per pattern
    M = coinduced_module(p, s)
    monkeypatch.setattr(homcoh, "_resolution_differential", broken)
    assert not verify_resolution_homotopy(M, 1)
    assert not verify_resolution_homotopy_per_key(M, 1)


def equality_pattern(word):
    """The blocks of equal letters of word, numbered in order of first appearance."""
    first = {}
    return tuple(first.setdefault(c, len(first)) for c in word)


@pytest.mark.parametrize(
    "M",
    [
        coinduced_module(2, 1),
        coinduced_module(3, 1),
        coinduced_module(2, 2),
        # one basis vector, of a character other than 0
        GradedHModule.trivial_H(3, 1, {(2,): 1}),
    ],
    ids=["O_G-2-1", "O_G-3-1", "O_G-2-2", "one-vector-3-1"],
)
def test_pattern_homotopy_covers_every_pattern(monkeypatch, M):
    # a differential that drops its last face only on the keys of B^n0 whose
    # (phi_0, ..., phi_n0, psi) has one equality pattern fails both checks,
    # for every pattern and degree: no pattern is skipped
    real = homcoh._resolution_differential
    patterns = sorted(
        {
            (n, equality_pattern((*key[:-1], key[-1][0])))
            for n in range(3)
            for key in cochain_basis(M, n + 1)
        }
    )
    assert len(patterns) == {2: 2 + 4 + 8, 3: 2 + 5 + 14, 4: 2 + 5 + 15}[M.p**M.s]
    for n0, pattern in patterns:

        def wrong_on_pattern(M, n, v, n0=n0, pattern=pattern):
            out = {}
            for key, c in v.items():
                wrong = n == n0 and equality_pattern((*key[:-1], key[-1][0])) == pattern
                for k2, c2 in (broken if wrong else real)(M, n, {key: c}).items():
                    out[k2] = (out.get(k2, 0) + c2) % M.p
            return {k: c for k, c in out.items() if c}

        monkeypatch.setattr(homcoh, "_resolution_differential", wrong_on_pattern)
        assert not verify_resolution_homotopy_per_key(M, 2), (n0, pattern)
        assert not verify_resolution_homotopy(M, 2), (n0, pattern)


@settings(max_examples=40, deadline=None)
@given(graded_h_modules(), st.sampled_from([1, 2]), st.booleans())
def test_pattern_homotopy_matches_per_key_oracle(M, nmax, drop_last_face):
    with pytest.MonkeyPatch.context() as mp:
        if drop_last_face:
            mp.setattr(homcoh, "_resolution_differential", broken)
        verdict = verify_resolution_homotopy(M, nmax)
        assert verdict == verify_resolution_homotopy_per_key(M, nmax)
    assert verdict == (not drop_last_face or M.total_dim() == 0)


def test_pattern_homotopy_checks_one_key_per_pattern(monkeypatch):
    # p = 5, s = 2: B^2 alone has 25^3 * 25 = 390625 keys; per basis vector
    # the patterns of (phi_0, ..., phi_n, psi) number Bell(n + 2): 2, 5, 15
    keys = []

    def recording(M, n, key):
        keys.append((n, key))
        return True

    monkeypatch.setattr(homcoh, "_homotopy_holds", recording)
    assert verify_resolution_homotopy(coinduced_module(5, 2), 2)
    assert len(keys) == len(set(keys)) == 25 * (2 + 5 + 15)
    # with two characters, at most two blocks: 2, 4, 8 patterns per b
    keys.clear()
    assert verify_resolution_homotopy(coinduced_module(2, 1), 2)
    assert len(keys) == 2 * (2 + 4 + 8)


def four_term(p, sizes, mats):
    return CochainComplex(p, sizes, mats, start_degree=-1)


def random_one_live_complex(rnd, p):
    sizes = (rnd.randint(0, 2), rnd.randint(1, 3), rnd.randint(1, 3), rnd.randint(0, 2))
    live = rnd.randrange(3)
    mats = []
    for i in range(3):
        rows, cols = sizes[i + 1], sizes[i]
        M = [[0] * cols for _ in range(rows)]
        if i == live:
            for a in range(rows):
                for b in range(cols):
                    M[a][b] = rnd.randrange(p)
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
    mats = ([[]] * 8, [[0] * 8], [])
    with pytest.raises(EnumerationBudgetExceeded):
        pic_invariants(four_term(3, sizes, mats))
