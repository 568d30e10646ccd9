"""The Cartier operator on P^1 and on Kummer covers z^m = prod (x-tau_j)^b_j.

A form on the cover is a ``FormCombination`` sum_i h_i(x) * z_i * dx
with h_i rational, one level i per Frobenius step of the exponent orbit
(a single eigenform has one nonzero level).  The operator sends
level i+1 to level i via z_{i+1} = z_i^p * prod (x-tau_j)^{e_j} with
integer exponents e_j = (b^(i+1) - p b^(i))/m; the root-of-unity
ambiguity in that relation is fixed as 1 (any other choice is absorbed
by the eigenform constants).

Local expansions at critical points are plain Laurent series.  Over
the dual numbers k[eps], with the branch points moved to tau_k + eps
delta_k and the h_l lifted to h_l + eps theta_l, the expansion at c is
base + eps * rest: the base is the expansion of sum_l h_l z_l dx, and
the rest is the expansion of the derived form ``epsilon_form``,

    sum_l (theta_l + delta_c h_l' + h_l (1/m) sum_{k != c} (delta_c - delta_k) b_k^(l) / (x - tau_k)) z_l dx,

because in the local parameter x = tau_c + eps delta_c + t^{m_c} only
the other factors of the radicand move (its docstring has the
derivation).

Precision comes from valuations, and nothing is retried.  An expansion
at the center c is built once from series of

    L = max(upto, v) - v + 1 + [c finite] m_c (1 + D)

terms: v is the least ``ord_single_form`` (the exact order of a term
h_l z_l dx) over the nonzero h_l, m_c the ramification index at c and D
the largest multiplicity of tau_c in their numerators and denominators.
Products, inverses and m-th roots of series keep the least relative
precision of their factors.  It is lost only by the factor x - tau_c =
t^{m_c} of the radicand (m_c) and by a polynomial with a D-fold zero at
tau_c (m_c D, and m_c more at tau_c = 0, where x itself starts at
t^{m_c}); nothing is lost at infinity.  So every coefficient through
``upto`` is exact.  The derived form is sized by its own orders.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .algebra import (
    INF,
    FieldDescriptor,
    LaurentSeries,
    Poly,
    RationalFunction,
    nth_root_with_extension,
)
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


def frobenius_cofactor(g):
    """g^{p-1} for a polynomial g, as the exact quotient g^p // g.

    In characteristic p, Frobenius is additive: g^p = sum c_k^p x^{pk}
    takes no product, only the p-th powers of the coefficients.  Its
    callers are ``cartier_rational`` and ``deform.lift_datum``, whose
    denominators are not split into linear factors; the candidate check
    takes ``cartier_of_linear_powers`` instead.
    """
    d = g.descriptor
    p = d.p
    gp = [d.zero()] * (p * g.degree + 1)
    for k, c in enumerate(g.coeffs):
        gp[p * k] = c.frobenius()
    return Poly(d, gp) // g


def cartier_rational(f):
    """C(f dx) for a rational function f = N/g, g monic.

    f dx = (N g^{p-1} / g^p) dx and C(h^p w) = h C(w), so
    C(f dx) = C(N g^{p-1}) / g dx (``cartier_poly``).  The factor
    g^{p-1} is g^p // g (``frobenius_cofactor``), one exact division,
    since g^p = sum c_k^p x^{pk} in characteristic p.
    """
    if f.is_zero():
        return f
    g = f.denominator
    return RationalFunction.from_poly(cartier_poly(f.numerator * frobenius_cofactor(g))) / g


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


def powers_of_linear_factors(descriptor, taus, exponents):
    """(N, g), monic, with prod (x - tau_j)^{e_j} = N/g.

    N takes the factors with e_j > 0 and g those with e_j < 0, so N/g is
    in lowest terms when the tau_j are distinct.
    """
    return (
        _product_of_linear_powers(descriptor, taus, exponents),
        _product_of_linear_powers(descriptor, taus, [-e for e in exponents]),
    )


def cartier_of_linear_powers(descriptor, taus, exponents):
    """C(u dx)/dx for u = prod (x - tau_j)^{E_j}, E_j >= 0, with no division.

    Write E_j = p q_j + r_j with 0 <= r_j < p.  Then u = H^p R with
    H = prod (x - tau_j)^{q_j} and R = prod (x - tau_j)^{r_j}, and
    C(H^p R dx) = H C(R dx), since C is p^{-1}-linear.  C(R dx)/dx reads
    only the coefficients R_n with n = -1 mod p (``cartier_poly``), so the
    factor of R with the largest r_j is multiplied in at those n only.
    When every r_j is 0, R = 1 and the image is 0.
    """
    d = descriptor
    p = d.p
    rest = sorted(((e % p, tau) for tau, e in zip(taus, exponents) if e % p), key=lambda f: f[0])
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
    image = Poly(d, coeffs)
    h = _product_of_linear_powers(d, taus, [e // p for e in exponents])
    return h * image if h.degree and image else image


def level_constant(cover, level):
    """kappa with C((1/Q) z_{level+1} dx) = kappa (1/Q) z_level dx, or 0.

    Q = x(x - 1), and the cover's first two branch points are 0 and 1,
    the roots of Q (``search.build_cover``).  Since z_{level+1} =
    z_level^p prod (x - tau_j)^{e_j}, the image is C(N/g dx) z_level
    with N/g = (1/Q) prod (x - tau_j)^{e_j}.  That quotient is already
    in lowest terms with g monic: the tau_j are distinct, and Q only
    lowers the exponents at 0 and 1.  So N and g are read off the
    exponents, with no gcd (``powers_of_linear_factors``).  With
    u = N g^{p-1}, C(N/g dx) = C(u)/g dx, and the image is kappa/Q dx
    iff C(u) Q = kappa g.  As Q and g are monic, a nonzero kappa needs
    deg C(u) = deg g - 2 and kappa = lead C(u).

    u is itself a product of linear powers, prod (x - tau_j)^{E_j} with
    E_j = e_j when e_j > 0 and E_j = (p - 1)(-e_j) when e_j < 0, so C(u)
    comes from the p-th-power split u = H^p R
    (``cartier_of_linear_powers``), not from the exact quotient
    g^p // g (``frobenius_cofactor``); g is built only for an image
    that passes the degree test.

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
    es = [e - (j < 2) for j, e in enumerate(cover.step_exponents((level + 1) % cover.s))]
    image = cartier_of_linear_powers(d, cover.taus, [e if e > 0 else (p - 1) * -e for e in es])
    if image.is_zero() or image.degree != -sum(e for e in es if e < 0) - 2:
        return d.zero()
    kappa = image.lead
    _, g = powers_of_linear_factors(d, cover.taus, es)
    q = Poly(d, [d.zero(), -d.one(), d.one()])
    return kappa if image * q == g * kappa else d.zero()


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
        return powers_of_linear_factors(self.descriptor, self.taus, exponents)[0]

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

    def step_factor(self, level):
        """prod (x - tau_j)^{e_j} as a rational function."""
        return RationalFunction(
            *powers_of_linear_factors(self.descriptor, self.taus, self.step_exponents(level))
        )

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
    """sum over levels of h_l * z_l * dx (one rational coefficient per level).

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
    cover = combo.cover
    out = [None] * cover.s
    for level, h in enumerate(combo.hs):
        out[(level - 1) % cover.s] = cartier_rational(h * cover.step_factor(level))
    return FormCombination(cover, tuple(out))


def is_cartier_fixed(combo):
    """True iff the Cartier operator returns the combination exactly.

    The general test, for any rational coefficients, each level through
    ``cartier_rational``; ``search.verify_datum`` tests its constant
    coefficients by ``is_fixed_by_constants``, and this is the oracle.
    """
    return cartier_combination(combo) == combo


def omega_form(datum, i):
    """The level-i eigenform eps_i * z_i * dx / prod_{B0 finite}(x - tau).

    A combination whose only nonzero level is i (mod s).
    """
    cover = datum.cover
    level = i % cover.s
    eps = datum.epsilon[level]
    if eps.is_zero():
        raise ValueError("eigenform constants must be units")
    d = cover.descriptor
    zero = RationalFunction(Poly(d, []), Poly.constant(d, 1))
    hs = [zero] * cover.s
    hs[level] = RationalFunction(Poly.constant(d, eps), datum.q_poly)
    return FormCombination(cover, tuple(hs))


def omega_combination(datum):
    d = datum.cover.descriptor
    hs = []
    for i in range(datum.cover.s):
        hs.append(RationalFunction(Poly.constant(d, datum.epsilon[i]), datum.q_poly))
    return FormCombination(datum.cover, tuple(hs))


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


def phi_basis(datum):
    """The forms phi_l of ``phi_coefficients``, as ``FormCombination``s."""
    rows, field = phi_coefficients(datum)
    embedded = datum.embedded(field)
    q = embedded.q_poly
    return [
        FormCombination(
            embedded.cover, tuple(RationalFunction(Poly.constant(field, c), q) for c in row)
        )
        for row in rows
    ]


def _primitive_root_of_unity(descriptor, m):
    """Least element of multiplicative order m (serialization order)."""
    if (descriptor.order - 1) % m:
        raise ValueError(f"no m-th roots of unity in {descriptor}")
    for cand in descriptor.elements():
        if not cand.is_zero() and cand.multiplicative_order() == m:
            return cand
    raise ArithmeticError("unreachable: the unit group is cyclic")


# ---------------------------------------------------------------------------
# local expansions


def _monomial(descriptor, c, k, length):
    """c t^k, known through order k + length - 1."""
    coeffs = [descriptor.element(c)] + [descriptor.zero()] * (length - 1)
    return LaurentSeries(descriptor, k, coeffs)


def _eval_poly(poly, x):
    d = poly.descriptor
    acc = None
    for c in reversed(poly.coeffs):
        cd = _monomial(d, c, 0, x.trunc - x.start + 1)
        acc = cd if acc is None else acc * x + cd
    return acc


def expand_combination(cover, hs, center, upto):
    """Expansion of a nonzero sum_l h_l z_l dx at a critical point.

    ``center`` is a finite branch index or INF.  The local parameter is t
    with x = tau_c + t^{m_c} (resp. x = t^{-m_inf}); returns the
    dt-coefficient with coefficients up to order ``upto``, over the
    cover's field or the minimal extension needed for the branch
    constant of z.  Over the dual numbers the epsilon-part is the
    expansion of ``epsilon_form``.

    The branch of z_0 is fixed by the least m-th root (serialization
    order) of the leading constant; higher levels follow from the
    Frobenius recursion, so all levels use consistent branches.

    Every series has L = max(upto, v) - v + 1 + [c finite] m_c (1 + D)
    terms, from the valuations named and justified in the module
    docstring.  The expansion is built once; there is no retry, and a
    window ending below ``upto`` raises ArithmeticError.
    """
    orders = _term_orders(cover, hs, center)
    if not orders:
        raise ValueError("the zero form has no expansion")
    v = min(orders)
    length = max(upto, v) - v + 1
    if center is not INF:
        tau = cover.taus[center]
        mult = max(
            g.multiplicity_at(tau)
            for h in hs
            if not h.is_zero()
            for g in (h.numerator, h.denominator)
        )
        length += cover.m_at(center) * (1 + mult)
    out = _expand(cover, hs, center, length)
    if out.window()[1] < upto:
        raise ArithmeticError("expansion ends below upto: the precision rule is broken")
    return out


def _expand(cover, hs, center, length):
    """``expand_combination`` from series of ``length`` terms.

    The radicand's leading coefficient, prod_{k != c} (tau_c -
    tau_k)^{b_k^(0)} at a finite center c and 1 at infinity, gets its
    least m-th root, and the minimal extension, before anything is built.
    """
    m = cover.m
    mj = cover.m_at(center)
    lead = cover.descriptor.one()
    if center is not INF:
        for k, (tau_k, orbit) in enumerate(zip(cover.taus, cover.orbits)):
            if k != center:
                lead = lead * (cover.taus[center] - tau_k) ** orbit[0]
    root, desc = nth_root_with_extension(lead, m)
    if desc != cover.descriptor:
        cover = cover.embed(desc)
        hs = tuple(h.embed(desc) for h in hs)
    if center is INF:
        x = _monomial(desc, 1, -mj, length)
        dx = x.derivative()
    else:
        x = _monomial(desc, cover.taus[center], 0, length) + _monomial(desc, 1, mj, length - mj)
        dx = _monomial(desc, mj, mj - 1, length)
    factors = [x - _monomial(desc, t, 0, length) for t in cover.taus]
    # z_0 from the radicand, then the Frobenius recursion
    rad = _monomial(desc, 1, 0, length)
    for k, (fk, orbit) in enumerate(zip(factors, cover.orbits)):
        rad = fk ** orbit[0] if k == 0 else rad * fk ** orbit[0]
    zs = [rad.nth_root(m, root)]
    for level in range(1, cover.s):
        z = zs[-1] ** desc.p
        for fk, e in zip(factors, cover.step_exponents(level)):
            if e:
                z = z * fk**e
        zs.append(z)
    total = None
    for h, z in zip(hs, zs):
        if not h.is_zero():
            term = _eval_poly(h.numerator, x) * _eval_poly(h.denominator, x).inverse() * z * dx
            total = term if total is None else total + term
    return total


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
    part forced on omega_l by the moving points alone.
    """
    cover = combo.cover
    d = cover.descriptor
    x = Poly.x(d)
    zero = d.zero()
    delta_c = delta.get(center, zero)
    minv = d.element(cover.m).inverse()
    out = []
    for level, h in enumerate(combo.hs):
        moved = RationalFunction(Poly(d, []), Poly.constant(d, 1))
        for k, (tau, orbit) in enumerate(zip(cover.taus, cover.orbits)):
            shift = delta_c - delta.get(k, zero)
            if k != center and not shift.is_zero():
                moved = moved + RationalFunction(
                    Poly.constant(d, d.element(orbit[level]) * shift), x - Poly.constant(d, tau)
                )
        g = h * moved * minv
        if not delta_c.is_zero():
            g = g + h.derivative() * delta_c
        out.append(g + thetas[level] if thetas else g)
    return FormCombination(cover, tuple(out))


def ord_at_critical(combo, center):
    """Exact vanishing order of a combination at a critical point.

    When the terms' orders ``ord_single_form`` are pairwise distinct the
    order is their minimum; when some tie, the local expansion is built
    once, up to the Riemann-Hurwitz bound ``_order_bound``, with no
    retry.  The input must be nonzero.
    """
    if combo.is_zero():
        raise ValueError("the zero form has no order")
    orders = _term_orders(combo.cover, combo.hs, center)
    if len(set(orders)) == len(orders):
        return min(orders)
    order = expand_combination(combo.cover, combo.hs, center, _order_bound(combo)).order()
    if order is None:
        # only possible on a disconnected cover: the form is zero on the
        # component through this point
        raise ArithmeticError("the form vanishes identically at this point")
    return order


def _order_bound(combo):
    """An upper bound for the order of a combination at any point above a branch.

    On the smooth complete cover Z, a differential that is not zero on
    the component C through the point P has sum_{P' in C} ord_{P'} =
    2g_C - 2.  Above a branch Q each term has its ``ord_single_form`` at
    every point, so ord_{P'} >= lb_Q, the least of them; over no branch
    the terms are regular.  Hence ord_P <= 2g_C - 2 + sum_Q (m/m_Q)
    max(0, -lb_Q), with m/m_Q points above Q.  By Riemann-Hurwitz the
    degree-m cover has 2g - 2 = -2m + sum_Q (m - m/m_Q), shared by its
    d = gcd(m, b_Q) isomorphic components.  Raises ValueError when some
    h_l has a pole away from the branch points, and KeyError when
    infinity is not a branch of the cover.
    """
    cover = combo.cover
    for h in combo.hs:
        if not h.is_zero():
            den = h.denominator
            if den.degree != sum(den.multiplicity_at(tau) for tau in cover.taus):
                raise ValueError("the form has a pole away from the branch points")
    m = cover.m
    branches = [*range(len(cover.taus)), INF]
    sheets = {Q: m // cover.m_at(Q) for Q in branches}
    bound = (sum(m - n for n in sheets.values()) - 2 * m) // gcd(
        m, *(cover.orbit_at(Q)[0] for Q in branches)
    )
    for Q in branches:
        bound += sheets[Q] * max(0, -min(_term_orders(cover, combo.hs, Q)))
    return bound


def _term_orders(cover, hs, center):
    """The ``ord_single_form`` of each nonzero term h_l z_l dx."""
    return [
        ord_single_form(cover, level, h, center)
        for level, h in enumerate(hs)
        if not h.is_zero()
    ]


def ord_single_form(cover, level, h, center):
    """Closed-form order of h * z_level * dx at a critical point."""
    if h.is_zero():
        raise ValueError("the zero form has no order")
    mj = cover.m_at(center)
    if center is INF:
        fin = sum(orb[level] for orb in cover.orbits)
        ord_z = -(mj * fin) // cover.m
        return mj * h.ord_at(INF) + ord_z - mj - 1
    tau = cover.taus[center]
    ord_z = mj * cover.orbits[center][level] // cover.m
    return mj * h.ord_at(tau) + ord_z + mj - 1
