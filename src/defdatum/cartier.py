"""The Cartier operator on P^1 and on Kummer covers z^m = prod (x-tau_j)^b_j.

A form on the cover is a ``FormCombination`` sum_i h_i(x) * z_i * dx,
one level i per Frobenius step of the exponent orbit (a single eigenform
has one nonzero level).  Each h_i is a ``BranchFraction``, a numerator
over known powers of the x - tau_j at the finite branch points, so no
form on the way to an order or a residue is reduced by a gcd.  The
Cartier operator on a fraction is one p-th-power split of its exponents
(``cartier_fraction``), with no gcd and no division.  The operator sends
level i+1 to level i via z_{i+1} = z_i^p * prod (x-tau_j)^{e_j} with
integer exponents e_j = (b^(i+1) - p b^(i))/m; the root-of-unity
ambiguity in that relation is fixed as 1 (any other choice is absorbed
by the eigenform constants).

Orders at critical points are read in closed form: h_l z_l dx has order
m_c ord(h_l) + ord(z_l) + m_c - 1 in the local parameter t, x = tau_c +
t^{m_c} (``ord_single_form``), and the branch of z_0 there starts with
the root ``branch_root``.  Over the dual numbers k[eps], with the branch
points moved to tau_k + eps delta_k and the h_l lifted to h_l + eps
theta_l, a form's expansion at c is base + eps * rest: the base is the
expansion of sum_l h_l z_l dx, and the rest is the expansion of the
derived form ``epsilon_form``,

    sum_l (theta_l + delta_c h_l' + h_l (1/m) sum_{k != c} (delta_c - delta_k) b_k^(l) / (x - tau_k)) z_l dx,

because in the local parameter x = tau_c + eps delta_c + t^{m_c} only
the other factors of the radicand move (its docstring has the
derivation).  So the orders of the derived form's levels are closed
forms too, and no series is built; the Laurent expansions themselves are
test oracles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from operator import add, sub

from .algebra import INF, FieldDescriptor, Poly, nth_root_with_extension
from .homcoh import rank_mod_p


# ---------------------------------------------------------------------------
# the Cartier operator on rational differentials of the x-line


def cartier_poly(u):
    """The polynomial C(u dx)/dx, for a polynomial u.

    C(x^{pk-1} dx) = x^{k-1} dx and C kills the other monomials, so it
    keeps the coefficients of x^n with n = -1 mod p and takes their
    p-th roots (Frobenius inverses).
    """
    d = u.descriptor
    zero = d.zero()
    return Poly(d, [c.frobenius_inverse() if c else zero for c in u.coeffs[d.p - 1 :: d.p]])


def split_exponents(exponents, p):
    """The p-th-power split: (q, r) with n_j = p q_j + r_j, 0 <= r_j < p.

    For exponents n_j of either sign, prod (x - tau_j)^{n_j} = H^p R with
    H = prod (x - tau_j)^{q_j} and the polynomial R = prod (x -
    tau_j)^{r_j}, and C(P H^p R dx) = H C(P R dx), since C is
    p^{-1}-linear (Manin).
    """
    pairs = [divmod(n, p) for n in exponents]
    return [q for q, _ in pairs], [r for _, r in pairs]


def _linear_power(descriptor, tau, e):
    """(x - tau)^e, e >= 0, by the binomial theorem.

    The coefficient of x^k is C(e, k) (-tau)^(e-k), with C(e, k) taken
    mod p, so no polynomial product is formed; (x - tau)^p comes out as
    x^p - tau^p.
    """
    d = descriptor
    p = d.p
    step = -tau
    powers = [d.one()]
    for _ in range(e):
        powers.append(powers[-1] * step)
    zero = d.zero()
    coeffs = []
    binom = 1
    for k in range(e + 1):
        c = binom % p
        coeffs.append(powers[e - k] if c == 1 else powers[e - k] * d.element(c) if c else zero)
        binom = binom * (e - k) // (k + 1)
    return Poly(d, coeffs)


def _nonzeros(poly):
    return sum(1 for c in poly.coeffs if c)


def _product_of_linear_powers(descriptor, taus, exponents):
    """prod (x - tau_j)^{e_j} over the e_j > 0, monic (1 when there are none)."""
    out = None
    for tau, e in zip(taus, exponents):
        if e > 0:
            f = _linear_power(descriptor, tau, e)
            if out is None:
                out = f
            else:
                # a product skips the zero coefficients of its left factor
                # only: x^e and (x - tau)^e with p | e are sparse
                out = f * out if _nonzeros(f) < _nonzeros(out) else out * f
    return Poly.constant(descriptor, 1) if out is None else out


def _divide_out(poly, tau, limit):
    """(poly / (x - tau)^k, k) for the largest k <= limit with (x - tau)^k | poly.

    Synthetic division: Horner's rule at the known root gives the
    quotient's coefficients and the remainder poly(tau) in one pass.
    """
    coeffs = poly.coeffs
    k = 0
    while k < limit and coeffs:
        acc = None
        steps = []
        for c in reversed(coeffs):
            acc = c if acc is None else acc * tau + c
            steps.append(acc)
        if acc:
            break
        coeffs = steps[-2::-1]
        k += 1
    return (Poly(poly.descriptor, coeffs) if k else poly), k


class BranchFraction:
    """P / prod_k (x - tau_k)^{e_k}: a rational function with poles only at
    the finite branch points tau_k of a cover.

    The exponents are known, so no operation takes a gcd or divides
    polynomials: a sum takes the larger exponent at every point and
    multiplies each numerator by its missing linear powers
    (``_linear_power``), a product adds the exponents, and the derivative
    is the logarithmic one.  P may share factors x - tau_k with the
    denominator; the order at tau_c is then the multiplicity of tau_c in
    P minus e_c, and equality brings both sides to the larger exponents.
    """

    __slots__ = ("taus", "num", "exps")

    def __init__(self, taus, num, exps):
        self.taus = taus
        self.num = num
        self.exps = tuple(exps) if num.coeffs else (0,) * len(taus)

    def is_zero(self):
        return not self.num.coeffs

    def _check(self, other):
        if other.taus is not self.taus and other.taus != self.taus:
            raise ValueError("fractions over different branch points")

    def _over(self, exps):
        """The numerator over prod (x - tau_k)^{exps_k}, exps >= self.exps."""
        missing = [a - b for a, b in zip(exps, self.exps)]
        if not any(missing):
            return self.num
        return self.num * _product_of_linear_powers(self.num.descriptor, self.taus, missing)

    def __add__(self, other):
        self._check(other)
        if not other.num.coeffs:
            return self
        if not self.num.coeffs:
            return other
        if self.exps == other.exps:
            return BranchFraction(self.taus, self.num + other.num, self.exps)
        exps = tuple(map(max, self.exps, other.exps))
        return BranchFraction(self.taus, self._over(exps) + other._over(exps), exps)

    def __mul__(self, other):
        """The product with another fraction (exponents added) or a scalar."""
        if isinstance(other, BranchFraction):
            self._check(other)
            exps = tuple(map(add, self.exps, other.exps))
            return BranchFraction(self.taus, self.num * other.num, exps)
        return BranchFraction(self.taus, self.num * other, self.exps)

    def derivative(self):
        """(P/D)' = (P' L - P sum_k e_k L/(x - tau_k)) / (D L), L = prod_{e_k > 0} (x - tau_k)."""
        d = self.num.descriptor
        poles = [1 if e else 0 for e in self.exps]
        num = self.num.derivative()
        if not any(poles):
            return BranchFraction(self.taus, num, self.exps)
        num = num * _product_of_linear_powers(d, self.taus, poles)
        for k, e in enumerate(self.exps):
            e = d.element(e)
            if e:
                poles[k] = 0
                num = num - self.num * _product_of_linear_powers(d, self.taus, poles) * e
                poles[k] = 1
        return BranchFraction(self.taus, num, map(add, self.exps, poles))

    def order(self, center):
        """The order at tau_center (a branch index), or at infinity for INF."""
        if not self.num.coeffs:
            raise ValueError("the zero function has no valuation")
        if center is INF:
            return sum(self.exps) - self.num.degree
        return _divide_out(self.num, self.taus[center], self.num.degree)[1] - self.exps[center]

    def reduced_at(self, center):
        """The same function with no factor x - tau_center common to P and D."""
        e = self.exps[center]
        if not e:
            return self
        num, k = _divide_out(self.num, self.taus[center], e)
        if not k:
            return self
        exps = list(self.exps)
        exps[center] -= k
        return BranchFraction(self.taus, num, exps)

    def simple_residue(self, j):
        """Res_{tau_j} of self dx for at most a simple pole at tau_j.

        In closed form, P(tau_j) / prod_{k != j} (tau_j - tau_k)^{e_k}
        after any common factor x - tau_j is divided out, and 0 where
        there is no pole.  ValueError for a pole of higher order.
        """
        h = self.reduced_at(j)
        d = h.num.descriptor
        if not h.exps[j]:
            return d.zero()
        if h.exps[j] > 1:
            raise ValueError("not a simple pole")
        tau = h.taus[j]
        den = d.one()
        for k, (t, e) in enumerate(zip(h.taus, h.exps)):
            if e and k != j:
                den = den * (tau - t) ** e
        return h.num.evaluate(tau) / den

    def embed(self, target, taus):
        """The fraction over ``target``, whose points ``taus`` are the embedded ones."""
        return BranchFraction(taus, self.num.embed(target), self.exps)

    def __eq__(self, other):
        if not isinstance(other, BranchFraction):
            return NotImplemented
        if self.taus != other.taus:
            return False
        if self.exps == other.exps:
            return self.num == other.num
        exps = tuple(map(max, self.exps, other.exps))
        return self._over(exps) == other._over(exps)

    def __repr__(self):
        return f"BranchFraction({self.num!r} / {self.exps})"


def cartier_fraction(f, shift):
    """C(f prod (x - tau_j)^{shift_j} dx)/dx for a fraction f = P / prod (x - tau_j)^{e_j}.

    The form is P prod (x - tau_j)^{n_j} dx with n_j = shift_j - e_j, and
    the split n_j = p q_j + r_j (``split_exponents``) makes its image H
    C(P R dx): the polynomial C(P R dx)/dx (``cartier_poly``) times the
    x - tau_j with q_j > 0, over the x - tau_j with q_j < 0.  No gcd and
    no division.
    """
    d = f.num.descriptor
    quotients, remainders = split_exponents(map(sub, shift, f.exps), d.p)
    image = cartier_poly(f.num * _product_of_linear_powers(d, f.taus, remainders))
    return BranchFraction(
        f.taus,
        image * _product_of_linear_powers(d, f.taus, quotients),
        [max(-q, 0) for q in quotients],
    )


def cartier_of_small_powers(descriptor, taus, exponents):
    """C(R dx)/dx for R = prod (x - tau_j)^{r_j}, 0 <= r_j < p.

    C(R dx)/dx reads only the coefficients R_n with n = -1 mod p
    (``cartier_poly``), so the factor with the largest r_j is multiplied
    in at those n only.  When deg R < p - 1 the image is 0.
    """
    d = descriptor
    p = d.p
    rest = sorted(((r, tau) for tau, r in zip(taus, exponents) if r), key=lambda f: f[0])
    if sum(r for r, _ in rest) < p - 1:
        return Poly(d, [])
    last_r, last_tau = rest.pop()
    a = _product_of_linear_powers(d, [tau for _, tau in rest], [r for r, _ in rest]).coeffs
    b = _linear_power(d, last_tau, last_r).coeffs
    zero = d.zero()
    coeffs = []
    for n in range(p - 1, len(a) + last_r, p):
        acc = zero
        for k in range(max(0, n - len(a) + 1), min(last_r, n) + 1):
            acc = acc + a[n - k] * b[k]
        coeffs.append(acc.frobenius_inverse())
    return Poly(d, coeffs)


def level_constant(cover, level):
    """kappa with C((1/Q) z_{level+1} dx) = kappa (1/Q) z_level dx, or 0.

    Q = x(x - 1), and the cover's first two branch points are 0 and 1,
    the roots of Q (``search.build_cover``).  Since z_{level+1} =
    z_level^p prod (x - tau_j)^{e'_j}, the image is C(N/g dx) z_level
    with N/g = (1/Q) prod (x - tau_j)^{e'_j} = prod (x - tau_j)^{e_j},
    where e_j = e'_j - 1 at 0 and 1 and e_j = e'_j elsewhere.  That is
    in lowest terms, as the tau_j are distinct: with k_j = -e_j for the
    e_j < 0, g = prod (x - tau_j)^{k_j}.  C(N/g dx) = C(u)/g dx for
    u = N g^{p-1} = prod (x - tau_j)^{E_j}, with E_j = e_j when e_j > 0
    and E_j = (p - 1) k_j = p (k_j - 1) + (p - k_j) when e_j < 0.  So
    the image is kappa/Q dx iff C(u) Q = kappa g.

    u = H^p R with H = prod (x - tau_j)^{q_j}, q_j = E_j // p, and R =
    prod (x - tau_j)^{E_j mod p}, and C(u) = H C(R), since C is
    p^{-1}-linear (Manin).  With kappa != 0, H C(R) Q = kappa g holds
    iff
    - Q | g and H | g/Q, which is q_j <= t_j at every j for the exponent
      t_j = k_j - [j < 2] of g/Q; at 0 and 1 without a pole, t_j = -1;
    - C(R) = kappa S with S = g/(Q H) = prod (x - tau_j)^{t_j - q_j}.
      S is monic, so deg C(R) = deg S and kappa = lead C(R).
    H, g and the products H C(R), C(u) Q and kappa g are never formed.
    On ``search.build_cover``'s covers 0 < k_j <= p, so q_j = k_j - 1
    and S is the product of the x - tau_j over the new points with
    e_j < 0.

    Returns 0 whenever the image is not a nonzero constant multiple of
    (1/Q) z_level dx, a zero image or not.  That is exact for the
    fixedness test (``is_fixed_by_constants``): for a form sum_i c_i
    (1/Q) z_i dx with constant c_i, kappa_i = 0 forces c_i = 0, then
    c_{i-1} = F^{-1}(c_i) kappa_{i-1} = 0 and so on around the cycle of
    levels, so the only fixed form is 0, as it is when the image at
    level i is no constant multiple at all.
    """
    d = cover.descriptor
    p = d.p
    remainders, cofactor = [], []
    for j, e in enumerate(cover.step_exponents((level + 1) % cover.s)):
        on_q = j < 2
        e -= on_q
        k = -e if e < 0 else 0  # the exponent of g
        q, r = divmod((p - 1) * k if k else e, p)
        t = k - on_q  # of g/Q: -1 at 0 or 1 when Q does not divide g
        if q > t:
            return d.zero()
        remainders.append(r)
        cofactor.append(t - q)
    image = cartier_of_small_powers(d, cover.taus, remainders)
    if image.degree != sum(cofactor):
        return d.zero()
    kappa = image.lead
    s = _product_of_linear_powers(d, cover.taus, cofactor)
    return kappa if image == s * kappa else d.zero()


def is_fixed_by_constants(coeffs, kappas):
    """True iff sum_i c_i (1/Q) z_i dx is Cartier-fixed, for constant c_i.

    ``kappas`` holds the ``level_constant`` of each level, over the
    field of the c_i.  C is p^{-1}-linear, so it sends c_{i+1} (1/Q)
    z_{i+1} dx to c_{i+1}^{1/p} kappa_i (1/Q) z_i dx, and only level
    i+1 lands in level i.  So the form is fixed iff c_i =
    F^{-1}(c_{i+1}) kappa_i at every level i.  Where the image is no
    constant multiple, ``level_constant`` gives kappa_i = 0, and its
    docstring has why that is exact.  ``is_cartier_fixed`` is the
    general test, and the oracle of this one.
    """
    s = len(coeffs)
    return all(
        coeffs[i] == coeffs[(i + 1) % s].frobenius_inverse() * kappa
        for i, kappa in enumerate(kappas)
    )


# ---------------------------------------------------------------------------
# Kummer covers and eigenforms


@dataclass(frozen=True)
class KummerCover:
    """z^m = prod over finite branches of (x - tau_j)^{b_j^{(i)}}.

    ``orbits[j]`` is the full exponent orbit of branch j; the point at
    infinity carries ``infinity_orbit`` (its exponents never enter the
    defining equation, only the bookkeeping).  Purity normalization:
    exponents at each level sum to m over all points including infinity.
    """

    descriptor: FieldDescriptor
    m: int
    taus: tuple
    orbits: tuple
    infinity_orbit: tuple = None

    def __post_init__(self):
        if len(self.taus) != len(self.orbits):
            raise ValueError("one exponent orbit per finite branch")
        if len(set((t.coeffs for t in self.taus))) != len(self.taus):
            raise ValueError("branch points must be distinct")
        s = self.s
        for orbit in self.orbits:
            if len(orbit) != s:
                raise ValueError("orbit lengths differ")
        if self.infinity_orbit is not None and len(self.infinity_orbit) != s:
            raise ValueError("orbit lengths differ")
        p = self.descriptor.p
        orbits = list(self.orbits)
        if self.infinity_orbit is not None:
            orbits.append(self.infinity_orbit)
        for orbit in orbits:
            for i in range(s):
                if (p * orbit[i] - orbit[(i + 1) % s]) % self.m:
                    raise ValueError("exponent orbit is not a Frobenius orbit mod m")
        for i in range(s):
            total = sum(orb[i] for orb in self.orbits)
            if self.infinity_orbit is not None:
                total += self.infinity_orbit[i]
            if total % self.m:
                raise ValueError(f"level {i}: exponents do not sum to 0 mod m")

    @property
    def s(self):
        return len(self.orbits[0]) if self.orbits else (
            len(self.infinity_orbit) if self.infinity_orbit else 1
        )

    def is_pure(self):
        for i in range(self.s):
            total = sum(orb[i] for orb in self.orbits)
            if self.infinity_orbit is not None:
                total += self.infinity_orbit[i]
            if total != self.m:
                return False
        return True

    def orbit_at(self, key):
        if key is INF:
            if self.infinity_orbit is None:
                raise KeyError("infinity is not a branch of this cover")
            return self.infinity_orbit
        return self.orbits[key]

    def m_at(self, key):
        b = self.orbit_at(key)[0]
        return self.m // gcd(self.m, b) if b else 1

    def radicand(self, level):
        """prod (x - tau_j)^{b_j^{(level)}} as a polynomial."""
        exponents = [orbit[level % self.s] for orbit in self.orbits]
        return _product_of_linear_powers(self.descriptor, self.taus, exponents)

    def step_exponents(self, level):
        """e_j with z_level = z_{level-1}^p * prod (x-tau_j)^{e_j}."""
        s = self.s
        out = []
        for orbit in self.orbits:
            b_hi = orbit[level % s]
            b_lo = orbit[(level - 1) % s]
            e, rem = divmod(b_hi - self.descriptor.p * b_lo, self.m)
            if rem:
                raise ValueError("exponent orbit violates the Frobenius relation")
            out.append(e)
        return tuple(out)

    def embed(self, target):
        return KummerCover(
            target,
            self.m,
            tuple(t.embed(target) for t in self.taus),
            self.orbits,
            self.infinity_orbit,
        )


@dataclass(frozen=True)
class FormCombination:
    """sum over levels of h_l * z_l * dx, one ``BranchFraction`` h_l per level
    over the cover's finite branch points.

    The eigenform omega_i is the combination with only level i nonzero.
    """

    cover: KummerCover
    hs: tuple

    def __post_init__(self):
        if len(self.hs) != self.cover.s:
            raise ValueError("one coefficient per level")

    def is_zero(self):
        return all(h.is_zero() for h in self.hs)

    def __add__(self, other):
        if self.cover != other.cover:
            raise ValueError("forms live on different covers")
        return FormCombination(
            self.cover, tuple(a + b for a, b in zip(self.hs, other.hs))
        )


def cartier_combination(combo):
    """C of the combination: level l goes to level l - 1 through
    ``cartier_fraction`` with the step exponents of z_l = z_{l-1}^p
    prod (x - tau_j)^{e_j}."""
    cover = combo.cover
    out = [None] * cover.s
    for level, h in enumerate(combo.hs):
        out[(level - 1) % cover.s] = cartier_fraction(h, cover.step_exponents(level))
    return FormCombination(cover, tuple(out))


def is_cartier_fixed(combo):
    """True iff the Cartier operator returns the combination exactly.

    The general test, for any coefficients; ``search.verify_datum`` tests
    its constant coefficients by ``is_fixed_by_constants``, and this is
    the oracle.
    """
    return cartier_combination(combo) == combo


def omega_combination(datum):
    """sum_i eps_i (1/Q) z_i dx, Q = x (x - 1) over the cover's first two
    branch points, 0 and 1 (``search.build_cover``)."""
    cover = datum.cover
    d = cover.descriptor
    exps = (1, 1) + (0,) * (len(cover.taus) - 2)
    return FormCombination(
        cover, tuple(BranchFraction(cover.taus, Poly.constant(d, e), exps) for e in datum.epsilon)
    )


def phi_coefficients(datum):
    """The rows of the F_p-rational basis phi_l = sum_i chi_{i+l}(alpha) omega_i.

    Returns (rows, field): row l holds the constants chi_{i+l}(alpha)
    eps_i, so that phi_l = sum_i row_l[i] (1/Q) z_i dx over ``field``,
    F_{p^{lcm(r, s)}}.  chi_0(alpha) is a primitive m-th root of unity
    gamma in F_{p^s} (embedded into that field) and chi_{i+l}(alpha) =
    gamma^{p^{i+l}}, for the least power gamma = gamma0^k (k prime to
    m, in increasing k) whose conjugates are F_p-independent.  When none
    has independent conjugates, the least element of F_{p^s} that does
    (a normal-basis generator, in serialization order) takes its place;
    the fallback is scanned lazily, so it costs nothing when a root of
    unity works.  ArithmeticError when no scalar qualifies.
    """
    s = datum.signature.s
    p = datum.descriptor.p
    m = datum.signature.m
    roots_field = datum.field_with_roots()
    gamma0 = _primitive_root_of_unity(roots_field, m)
    roots = [gamma0**k for k in range(1, m) if gcd(k, m) == 1]
    # the fixed space only needs c in F_{p^s} with independent conjugates
    fallback = (
        e
        for e in roots_field.elements()
        if not e.is_zero() and e ** (p**s) == e and e not in roots
    )
    for gamma in itertools.chain(roots, fallback):
        conjugates = [gamma ** (p**l) for l in range(s)]
        if rank_mod_p([list(e.coeffs) for e in conjugates], p) != s:
            continue
        eps = [e.embed(roots_field) for e in datum.epsilon]
        return [[eps[i] * conjugates[(i + l) % s] for i in range(s)] for l in range(s)], roots_field
    raise ArithmeticError("no scalar yields an F_p-independent fixed basis")


def _primitive_root_of_unity(descriptor, m):
    """Least element of multiplicative order m (serialization order)."""
    if (descriptor.order - 1) % m:
        raise ValueError(f"no m-th roots of unity in {descriptor}")
    for cand in descriptor.elements():
        if not cand.is_zero() and cand.multiplicative_order() == m:
            return cand
    raise ArithmeticError("unreachable: the unit group is cyclic")


# ---------------------------------------------------------------------------
# orders and branches at critical points


def branch_root(cover, center):
    """(root, field) fixing the branch of z_0 at a critical point.

    The radicand's leading coefficient is prod_{k != c} (tau_c -
    tau_k)^{b_k^(0)} at a finite center c and 1 at infinity; the root is
    its least m-th root (serialization order) in the least extension of
    the cover's field that holds one (``nth_root_with_extension``).  It
    depends on the cover and the center alone: the leading coefficient
    of z_0 there, and a test oracle expanding many forms at one point
    takes it once.
    """
    lead = cover.descriptor.one()
    if center is not INF:
        for k, (tau_k, orbit) in enumerate(zip(cover.taus, cover.orbits)):
            if k != center:
                lead = lead * (cover.taus[center] - tau_k) ** orbit[0]
    return nth_root_with_extension(lead, cover.m)


def epsilon_form(combo, center, delta, thetas=None):
    """The epsilon-part at ``center`` of sum_l (h_l + eps theta_l) z_l dx, as a form.

    Over k[eps] the finite branch points move to tau_k + eps delta_k
    (``delta`` maps branch indices to delta_k, absent ones are 0, and
    infinity never moves, so delta_c = 0 there).  In the local parameter
    x = tau_c + eps delta_c + t^{m_c} the center's own factor is exactly
    t^{m_c}, and with x0 = tau_c + t^{m_c} (x0 = x at infinity) and
    eps^2 = 0 every other factor is

        x - tau_k - eps delta_k = (x0 - tau_k) (1 + eps (delta_c - delta_k) / (x0 - tau_k)).

    So z_0 = z_0(x0) (1 + (eps/m) sum_{k != c} (delta_c - delta_k)
    b_k^(0) / (x0 - tau_k)), and the step z_l = z_{l-1}^p prod (x -
    tau_k)^{e_k} keeps that shape with b^(l): the p-th power kills the
    epsilon-part and e_k = b_k^(l) / m mod p.  With h_l(x) = h_l(x0) +
    eps delta_c h_l'(x0) and dx = dx0, the epsilon-part of the expansion
    is the plain expansion of sum_l g_l z_l dx0 with

        g_l = theta_l + delta_c h_l' + h_l (1/m) sum_{k != c} (delta_c - delta_k) b_k^(l) / (x - tau_k),

    linear in (h, theta) and in delta.  At infinity g_l - theta_l is the
    part forced on omega_l by the moving points alone.  The sum over k is
    one fraction: sum_k c_k prod_{j != k} (x - tau_j) over prod_k (x -
    tau_k), both over the k with c_k != 0.
    """
    cover = combo.cover
    d = cover.descriptor
    taus = cover.taus
    zero = d.zero()
    delta_c = delta.get(center, zero)
    minv = d.element(cover.m).inverse()
    out = []
    for level, h in enumerate(combo.hs):
        coeffs = [
            zero if k == center else d.element(orbit[level]) * (delta_c - delta.get(k, zero))
            for k, orbit in enumerate(cover.orbits)
        ]
        poles = [1 if c else 0 for c in coeffs]
        num = Poly(d, [])
        for k, c in enumerate(coeffs):
            if c:
                poles[k] = 0
                num = num + _product_of_linear_powers(d, taus, poles) * c
                poles[k] = 1
        g = h * BranchFraction(taus, num, poles) * minv
        if delta_c:
            g = g + h.derivative() * delta_c
        out.append(g + thetas[level] if thetas else g)
    return FormCombination(cover, tuple(out))


def ord_single_form(cover, level, h, center):
    """Closed-form order of h * z_level * dx at a critical point."""
    if h.is_zero():
        raise ValueError("the zero form has no order")
    return form_order(cover, level, h.order(center), center)


def form_order(cover, level, ord_h, center):
    """Order of h * z_level * dx at a critical point where h has order ord_h."""
    mj = cover.m_at(center)
    if center is INF:
        fin = sum(orb[level] for orb in cover.orbits)
        ord_z = -(mj * fin) // cover.m
        return mj * ord_h + ord_z - mj - 1
    ord_z = mj * cover.orbits[center][level] // cover.m
    return mj * ord_h + ord_z + mj - 1
