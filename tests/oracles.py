"""Test oracles: the direct, slow forms of paths the package computes by
structure.

No command runs anything here.  Each oracle is compared with the
package's path in the unit suites:

- ``group_cochain_complex`` (one dense differential over the invariants
  of a whole degree) with ``homcoh.group_cochain_blocks``;
- ``verify_resolution_homotopy_per_key`` (every basis key) with
  ``homcoh.verify_resolution_homotopy`` (one key per equality pattern);
- ``enumerate_signatures_bruteforce`` (every residue tuple) with
  ``sigdata.enumerate_signatures`` (construction from sum b0 = m);
- ``validate_signature_by_fractions`` (the slope identities in
  Fractions) with ``sigdata.validate_signature`` (the same identities
  times m, in integers).
"""

import itertools
from math import gcd

from defdatum import homcoh, sigdata


def cochain_basis(M, n):
    """Basis of C^n(G, M) = O_G^{tensor n} (tensor) M in the character basis.

    A generator: C^n has (p^s)^n dim M keys, 390625 at p = 5, s = 2, n = 3.
    """
    basis = M.basis()
    for phis in itertools.product(M.characters(), repeat=n):
        for b in basis:
            yield (*phis, b)


def invariant_basis(M, basis):
    """Orbit-sum basis of the H-invariants of a monomial H-action.

    Returns a list of (sparse vector, key) pairs: the vector (dict
    basis-key -> coeff) normalized to coefficient 1 at its smallest key.
    """
    index = {b: i for i, b in enumerate(basis)}
    seen = set()
    out = []
    p = M.p
    for b in basis:
        if b in seen:
            continue
        orbit = []
        cur, c = b, 1
        while True:
            orbit.append((cur, c))
            seen.add(cur)
            *phis, mb = cur
            sc, mb2 = M.act_generator(mb)
            cur = (*[M.apply_T(phi) for phi in phis], mb2)
            c = (c * sc) % p
            if cur == b:
                break
        if c == 1:  # the cycle scalar; otherwise no invariant on this orbit
            vec = dict(orbit)
            # normalize at the smallest key for stable coordinates
            k0 = min(vec, key=lambda k: index[k])
            inv = pow(vec[k0], p - 2, p)
            out.append(({k: (co * inv) % p for k, co in vec.items()}, k0))
    return out


def group_cochain_complex(M, nmax):
    """The H-invariant cochain complex of G = G_0 x| H in degrees 0..nmax+1.

    Every degree's (p^s)^n dim M cochains are listed and each
    differential is one dense matrix over the invariants of a whole
    degree.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    degree_data = []
    for n in range(nmax + 2):
        basis = list(cochain_basis(M, n))
        degree_data.append((basis, invariant_basis(M, basis)))
    dims = tuple(len(inv) for _, inv in degree_data)
    mats = []
    for n in range(nmax + 1):
        _, inv_n = degree_data[n]
        _, inv_n1 = degree_data[n + 1]
        rep_index = {k0: j for j, (_, k0) in enumerate(inv_n1)}
        D = [[0] * len(inv_n) for _ in inv_n1]
        for col, (vec, _) in enumerate(inv_n):
            for k, c in homcoh._cochain_differential(M, n, vec).items():
                j = rep_index.get(k)
                if j is not None:
                    D[j][col] = c
        mats.append(D)
    return homcoh.CochainComplex(M.p, dims, tuple(mats))


def verify_resolution_homotopy_per_key(M, nmax):
    """s.d + d.s = id checked on every basis key of B^n, n <= nmax.

    B^n has n + 1 character slots: (p^s)^(n+1) dim M keys.
    """
    return all(
        homcoh._homotopy_holds(M, n, key)
        for n in range(nmax + 1)
        for key in cochain_basis(M, n + 1)
    )


def enumerate_signatures_bruteforce(p, m, n_points):
    """Every residue tuple scanned: m^3 (m-1)^(|B|-3) candidates."""
    sigdata._check_enumeration_args(p, m, n_points)
    candidates = itertools.product(
        itertools.product(range(m), repeat=3),
        itertools.product(range(1, m), repeat=n_points - 3),
    )
    return sigdata._admissible(p, m, candidates)


def validate_signature_by_fractions(sig):
    """`validate_signature` with the identities in Fractions."""
    if gcd(sig.p, sig.m) != 1:
        return sigdata.ValidationReport(("p not invertible mod m",))
    fails = sigdata._structural_failures(sig)
    s = sig.s
    for i in range(s):
        total = sum((sig.sigma(j, i) - 1) for j in range(sig.n_points))
        if total != -2:
            fails.append(f"level {i}: sum of (sigma - 1) is {total}, expected -2")
    for j in range(sig.n_points):
        s0 = sig.sigma(j, 0)
        for i in range(s):
            lhs = sig.sigma(j, i) - int(sig.sigma(j, i))
            rhs = sig.p**i * s0 - int(sig.p**i * s0)
            if lhs != rhs:
                fails.append(f"point {j}, level {i}: fractional orbit identity broken")
            if sig.sigma(j, i) == 1:
                fails.append(f"point {j}, level {i}: sigma = 1 is forbidden")
    return sigdata.ValidationReport(tuple(fails))
