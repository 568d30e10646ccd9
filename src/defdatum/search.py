"""Search for multiplicative deformation data realizing a signature.

The base triple is pinned at 0, 1 and infinity in canonical slot order
(wild points sort last, hence land at infinity); the remaining branch
points run over the chosen field.  A tuple of branch points carries a
datum iff every level of the Cartier condition C(omega_{i+1}) = omega_i
degenerates to a constant lambda_i; the eigenform constants eps_i are
then pinned (up to the F_{p^s}-rational ambiguity absorbed into the
choice of least root) by eps_i = frobenius_inverse(eps_{i+1}) lambda_i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import lcm

from . import cartier, sigdata
from .algebra import (
    INF,
    FieldDescriptor,
    FieldElement,
    Poly,
    nth_root_with_extension,
)


@dataclass(frozen=True)
class DeformationDatum:
    """A verified point of the search: signature, branch points, constants."""

    signature: sigdata.Signature
    descriptor: FieldDescriptor
    tau: tuple  # one FieldElement per new point, in slot order
    epsilon: tuple  # one unit per level
    lam: tuple  # the Cartier constants, one per level

    @cached_property
    def cover(self):
        """The Kummer cover, built once per datum (``embedded`` makes a new one)."""
        return build_cover(self.signature, self.descriptor, self.tau)

    @property
    def q_poly(self):
        """prod over the finite base-triple points (x - tau)."""
        d = self.descriptor
        x = Poly.x(d)
        return x * (x - Poly.constant(d, 1))

    def field_with_roots(self):
        """Smallest extension containing the datum and the m-th roots of 1."""
        s = self.signature.s
        return FieldDescriptor.get(self.descriptor.p, lcm(self.descriptor.r, s))

    def embedded(self, target):
        if target == self.descriptor:
            return self
        return DeformationDatum(
            self.signature,
            target,
            tuple(t.embed(target) for t in self.tau),
            tuple(e.embed(target) for e in self.epsilon),
            tuple(l.embed(target) for l in self.lam),
        )

    def to_json(self):
        return {
            "schema": "defdatum/1",
            "signature": self.signature.to_json(),
            "field": {
                "p": self.descriptor.p,
                "r": self.descriptor.r,
                "modulus": list(self.descriptor.modulus),
            },
            "tau": [t.to_json() for t in self.tau],
            "epsilon": [e.to_json() for e in self.epsilon],
            "lambda": [l.to_json() for l in self.lam],
        }

    @staticmethod
    def from_json(obj):
        """Read a datum document, checking its contract.

        Every p, m, s, r, nu, b0, modulus entry and coefficient is an int
        (not a bool or a float) and tau, epsilon and lambda are lists; the
        signature is admissible (``sigdata.validate_signature``) and in
        canonical order (``sigdata.canonicalize``); one tau per new
        point of the signature and one epsilon and one lambda per level;
        every element in ``field`` (its p, r and canonical modulus); tau
        distinct and outside {0, 1}; epsilon and lambda units.  A
        violation raises ValueError naming it.
        """
        if obj.get("schema") != "defdatum/1":
            raise ValueError("unknown schema")
        _check_ints(obj)
        sig = sigdata.Signature.from_json(obj["signature"])
        report = sigdata.validate_signature(sig)
        if not report.passed:
            raise ValueError(f"signature: {'; '.join(report.failures)}")
        if sig != sigdata.canonicalize(sig):
            # tau is listed in the canonical slot order of the new points
            raise ValueError("signature: points are not in canonical order")
        fld = obj["field"]
        descriptor = FieldDescriptor.get(fld["p"], fld["r"])
        if list(descriptor.modulus) != [c % descriptor.p for c in fld["modulus"]]:
            raise ValueError("field: non-canonical modulus")
        if sig.p != descriptor.p:
            raise ValueError("field: characteristic differs from the signature's p")

        def elements(key, count):
            if not isinstance(obj[key], list):
                raise ValueError(f"{key}: not a list")
            if len(obj[key]) != count:
                raise ValueError(f"{key}: {len(obj[key])} entries, the signature needs {count}")
            out = tuple(FieldElement.from_json(e) for e in obj[key])
            if any(e.descriptor != descriptor for e in out):
                raise ValueError(f"{key}: an element outside the field {descriptor}")
            return out

        tau = elements("tau", len(sig.new_indices()))
        epsilon = elements("epsilon", sig.s)
        lam = elements("lambda", sig.s)
        if len(set(tau)) != len(tau) or any(t.is_zero() or t == descriptor.one() for t in tau):
            raise ValueError("tau: new points must be distinct and outside {0, 1}")
        if any(e.is_zero() for e in epsilon + lam):
            raise ValueError("epsilon and lambda must be units")
        return DeformationDatum(sig, descriptor, tau, epsilon, lam)


_INT_KEYS = frozenset(("p", "m", "s", "r", "nu", "b0"))
_INT_LIST_KEYS = frozenset(("modulus", "coeffs"))


def _check_ints(node):
    """ValueError unless, anywhere in a document, every p, m, s, r, nu and
    b0 is an int (not a bool or a float) and every modulus and coeffs a
    list of ints."""
    if isinstance(node, list):
        for item in node:
            _check_ints(item)
    elif isinstance(node, dict):
        for key, value in node.items():
            if key in _INT_KEYS:
                if type(value) is not int:
                    raise ValueError(f"{key}: {value!r} is not an integer")
            elif key in _INT_LIST_KEYS:
                if not isinstance(value, list) or any(type(v) is not int for v in value):
                    raise ValueError(f"{key}: {value!r} is not a list of integers")
            else:
                _check_ints(value)


def build_cover(sig, descriptor, tau_new):
    """The Kummer cover of a canonical signature with given new points.

    Base-triple slots map to 0, 1, infinity in order; ``tau_new`` lists
    the coordinates of the new points in slot order.
    """
    sig = sigdata.canonicalize(sig)
    b0 = sig.b0_indices()
    new = sig.new_indices()
    if len(b0) != 3:
        raise ValueError("signature lacks a three-point base triple")
    if len(tau_new) != len(new):
        raise ValueError("one coordinate per new point")
    d = descriptor
    taus = [d.zero(), d.one()]
    orbits = [sig.orbit(b0[0]), sig.orbit(b0[1])]
    infinity = sig.orbit(b0[2])
    for t, j in zip(tau_new, new):
        t = d.element(t)
        taus.append(t)
        orbits.append(sig.orbit(j))
    return cartier.KummerCover(d, sig.m, tuple(taus), tuple(orbits), infinity)


def check_candidate(sig, descriptor, tau_new):
    """The Cartier constants of a branch-point tuple, or None.

    Level i of the eigenvalue condition asks that the Cartier image of
    (1/Q) z_{i+1} dx, Q = x(x - 1), is a constant multiple lambda_i != 0
    of (1/Q) z_i dx (``cartier.level_constant``, whose docstring has the
    test by the p-th-power split); the lambda_i are returned when every
    level holds, and the scan stops at the first level that fails.
    """
    cover = build_cover(sig, descriptor, tau_new)
    lams = []
    for i in range(cover.s):
        lam = cartier.level_constant(cover, i)
        if not lam:
            return None
        lams.append(lam)
    return lams


def normalize_epsilons(descriptor, lams):
    """Solve the cyclic relations eps_i = frobenius_inverse(eps_{i+1}) lambda_i.

    Eliminating gives eps_0^{p^s - 1} = prod_i lambda_i^{p^{s-i}}; the
    least root (serialization order) in the minimal field extension is
    taken (``nth_root_with_extension``, whose degree comes from the
    multiplicative order of the right-hand side, so there is no trial
    loop and no degree cap) and the remaining eps back-substituted.
    Returns (epsilons, descriptor of the field they live in).
    """
    p = descriptor.p
    s = len(lams)
    if any(l.is_zero() for l in lams):
        raise ValueError("Cartier constants must be units")
    big = descriptor.one()
    for i, l in enumerate(lams):
        big = big * l ** (p ** (s - i))
    root, target = nth_root_with_extension(big, p**s - 1)
    eps = [root] + [None] * (s - 1)
    lams_t = [l.embed(target) for l in lams]
    for i in range(s - 1, 0, -1):
        eps[i] = eps[(i + 1) % s].frobenius_inverse() * lams_t[i]
    return tuple(eps), target


def search_field(sig, descriptor):
    """All deformation data for the signature with branch points in the field.

    Deterministic: candidates are scanned in serialization order and new
    points with identical residues are taken in increasing order (they
    are interchangeable, so one representative per unordered choice).

    Only one tuple per Frobenius orbit is checked.  The cover equation
    has F_p coefficients apart from the tau_j, so tau passes the Cartier
    test iff tau^p does (coordinatewise, interchangeable slots re-sorted),
    and then lambda(tau^p) = lambda(tau)^p.  The first unchecked tuple in
    serialization order stands for its orbit; on a hit the k-th image
    gets lambda^(p^k), and its eps from its own ``normalize_epsilons``
    call, since the least root is not Galois-equivariant.  The data are
    sorted as the full scan would list them.
    """
    sig = sigdata.canonicalize(sig)
    report = sigdata.validate_signature(sig)
    if not report.passed:
        raise ValueError(f"invalid signature: {report.failures}")
    new = sig.new_indices()
    candidates = [
        e for e in descriptor.elements() if not e.is_zero() and e != descriptor.one()
    ]
    slot_b = [sig.points[j].b0 for j in new]
    seen = set()
    hits = {}  # tau key (slot order) -> datum
    for tau in itertools.permutations(candidates, len(new)):
        ok = True
        for a, b in itertools.combinations(range(len(new)), 2):
            if slot_b[a] == slot_b[b] and tau[a].key() >= tau[b].key():
                ok = False
                break
        if not ok:
            continue
        if tuple(t.key() for t in tau) in seen:
            continue
        orbit = [tau]
        while True:
            image = _canonical_slots(slot_b, [t.frobenius() for t in orbit[-1]])
            if image == tau:
                break
            orbit.append(image)
        keys = [tuple(t.key() for t in member) for member in orbit]
        seen.update(keys)
        lams = check_candidate(sig, descriptor, tau)
        if lams is None:
            continue
        for key, member in zip(keys, orbit):
            eps, eps_field = normalize_epsilons(descriptor, lams)
            hits[key] = DeformationDatum(
                sig,
                eps_field,
                tuple(t.embed(eps_field) for t in member),
                eps,
                tuple(l.embed(eps_field) for l in lams),
            )
            lams = [l.frobenius() for l in lams]
    # the full scan's order first, so that ties below keep it
    found = [hits[key] for key in sorted(hits)]
    found.sort(key=lambda dt: tuple(t.key() for t in dt.tau))
    return found


def verify_datum(datum):
    """Full verification battery; returns a dict of named booleans.

    Everything is recomputed from scratch: signature admissibility and
    purity, the levelwise Cartier eigenform conditions, vanishing orders
    of the eigenforms at every critical point against nu_j m_j + a_j - 1
    (with -1 at wild points), the isotypic cohomology, and the
    F_p-rational fixed basis.

    omega and every phi_l are sums of c_i (1/Q) z_i dx with constant
    c_i, so both Cartier checks read one ``cartier.level_constant``
    kappa_i per level, computed once, and test c_i = F^{-1}(c_{i+1})
    kappa_i (``cartier.is_fixed_by_constants``); the phi rows live in
    F_{p^{lcm(r, s)}}, so kappa is embedded there first, as C commutes
    with the embedding.  ``cartier.is_cartier_fixed`` is the oracle.
    """
    sig = datum.signature
    checks = {}
    checks["signature_valid"] = sig.validation.passed
    checks["pure"] = sigdata.is_pure(sig)
    checks["special"] = bool(sigdata.is_special(sig))
    cover = datum.cover
    s = cover.s
    checks["epsilon_units"] = all(not e.is_zero() for e in datum.epsilon)
    checks["epsilon_relations"] = all(
        datum.epsilon[i]
        == datum.epsilon[(i + 1) % s].frobenius_inverse() * datum.lam[i]
        for i in range(s)
    )
    kappas = [cartier.level_constant(cover, i) for i in range(s)]
    checks["cartier_fixed"] = cartier.is_fixed_by_constants(datum.epsilon, kappas)

    b0 = sig.b0_indices()
    new = sig.new_indices()
    slot_of = {}  # signature point index -> cover branch key
    slot_of[b0[0]] = 0
    slot_of[b0[1]] = 1
    slot_of[b0[2]] = INF
    for k, j in enumerate(new):
        slot_of[j] = 2 + k
    ord_ok = True
    for i in range(s):
        form = cartier.omega_form(datum, i)
        for j in range(sig.n_points):
            orbit = sig.orbit(j)
            if all(b == 0 for b in orbit):
                expected = -1
            else:
                expected = sig.points[j].nu * sig.m_j(j) + sig.a(j, i) - 1
            got = cartier.ord_at_critical(form, slot_of[j])
            if got != expected:
                ord_ok = False
    checks["vanishing_orders"] = ord_ok

    inv = sigdata.derived_invariants(sig)
    checks["isotypic_cohomology_trivial"] = all(
        pair == (0, 0) for pair in inv["isotypic_cohomology"]
    )
    try:
        rows, field = cartier.phi_coefficients(datum)
        kappas = [k.embed(field) for k in kappas]
        checks["phi_fixed"] = all(cartier.is_fixed_by_constants(row, kappas) for row in rows)
        checks["phi_count"] = len(rows) == s
    except ArithmeticError:
        checks["phi_fixed"] = False
        checks["phi_count"] = False
    checks["passed"] = all(checks.values())
    return checks


def _canonical_slots(slot_b, taus):
    """The tuple with interchangeable slots (equal b) sorted by key."""
    out = list(taus)
    for b in set(slot_b):
        idx = [i for i, bb in enumerate(slot_b) if bb == b]
        vals = sorted((taus[i] for i in idx), key=lambda t: t.key())
        for i, v in zip(idx, vals):
            out[i] = v
    return tuple(out)


def _canonical_tau_key(slot_b, taus):
    """Slot-ordered keys with interchangeable slots (equal b) sorted."""
    return tuple(t.key() for t in _canonical_slots(slot_b, taus))


def frobenius_orbits(data):
    """Partition of data (by index) under tau -> tau^p on all coordinates."""
    parent = list(range(len(data)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    index = {}
    for i, dt in enumerate(data):
        slot_b = [dt.signature.points[j].b0 for j in dt.signature.new_indices()]
        index[_canonical_tau_key(slot_b, dt.tau)] = i
    for i, dt in enumerate(data):
        slot_b = [dt.signature.points[j].b0 for j in dt.signature.new_indices()]
        image = _canonical_tau_key(slot_b, [t.frobenius() for t in dt.tau])
        if image in index:
            a, b = find(i), find(index[image])
            if a != b:
                parent[max(a, b)] = min(a, b)
    groups = {}
    for i in range(len(data)):
        groups.setdefault(find(i), []).append(i)
    return [sorted(v) for v in sorted(groups.values())]
