"""Span tracing of defdatum's public functions, wrapped from outside the package.

The tracer replaces each function named in `LAYERS` by a wrapper in every
place the program looks it up: the defining module or class, every
defdatum module that imported it by name (`deform.rank_mod_p`,
`cartier.nth_root_in_field`, ...) and every alias in a class body
(`__rmul__ = __mul__`).  It finds those places by identity, so a name
bound to the same function object anywhere in the package is patched.

Each wrapper counts calls and adds the span's self time: its duration
minus the part covered by spans opened inside it.  Every traced second
therefore lands in exactly one function, however deep the nesting.
`uninstall` puts every original back, so untraced rounds in the same
process run the program unmodified.
"""

from __future__ import annotations

import functools
import sys
import time

_clock = time.perf_counter

# (layer, owner inside defdatum.<layer>, attribute, metric name)
# An owner of None means a module-level function.
LAYERS = [
    ("algebra", "FieldElement", "__mul__", "algebra.FieldElement.mul"),
    ("algebra", "FieldElement", "__pow__", "algebra.FieldElement.pow"),
    ("algebra", "FieldElement", "inverse", "algebra.FieldElement.inverse"),
    ("algebra", "FieldElement", "embed", "algebra.FieldElement.embed"),
    ("algebra", None, "nth_root_in_field", "algebra.nth_root_in_field"),
    ("algebra", "Poly", "__mul__", "algebra.Poly.mul"),
    ("algebra", "Poly", "__divmod__", "algebra.Poly.divmod"),
    ("algebra", "Poly", "gcd", "algebra.Poly.gcd"),
    ("algebra", "LaurentSeries", "__mul__", "algebra.LaurentSeries.mul"),
    ("algebra", "LaurentSeries", "inverse", "algebra.LaurentSeries.inverse"),
    ("algebra", "LaurentSeries", "nth_root", "algebra.LaurentSeries.nth_root"),
    ("algebra", None, "series_at", "algebra.series_at"),
    ("cartier", None, "cartier_rational", "cartier.cartier_rational"),
    ("cartier", None, "expand_combination", "cartier.expand_combination"),
    ("cartier", "DSer", "power", "cartier.DSer.power"),
    ("cartier", None, "ord_at_critical", "cartier.ord_at_critical"),
    ("cartier", None, "phi_basis", "cartier.phi_basis"),
    ("search", None, "search_field", "search.search_field"),
    ("search", None, "check_candidate", "search.check_candidate"),
    ("search", None, "normalize_epsilons", "search.normalize_epsilons"),
    ("search", None, "verify_datum", "search.verify_datum"),
    ("deform", None, "lift_datum", "deform.lift_datum"),
    ("deform", None, "kodaira_spencer", "deform.kodaira_spencer"),
    ("deform", None, "is_j_special", "deform.is_j_special"),
    ("deform", None, "rigidity_check", "deform.rigidity_check"),
    ("homcoh", None, "rank_mod_p", "homcoh.rank_mod_p"),
    ("homcoh", None, "solve_mod_p", "homcoh.solve_mod_p"),
    ("homcoh", None, "cech_line_bundle", "homcoh.cech_line_bundle"),
    ("homcoh", None, "group_cohomology", "homcoh.group_cohomology"),
    ("homcoh", None, "pic_invariants", "homcoh.pic_invariants"),
    ("sigdata", None, "enumerate_signatures", "sigdata.enumerate_signatures"),
    ("sigdata", None, "validate_signature", "sigdata.validate_signature"),
    ("sigdata", None, "is_special", "sigdata.is_special"),
    ("sigdata", None, "derived_invariants", "sigdata.derived_invariants"),
]

# the CLI layer is one span around each command the benchmark invokes
CLI_SPAN = "cli"

# counts that must repeat exactly between traced runs of one seed
COUNTERS = [
    "cartier.expand_combination.coeffs",
    "search.check_candidate.hits",
    "search.normalize_epsilons.ext_degree",
    "deform.rigidity_check.directions",
    "sigdata.enumerate_signatures.signatures",
    "cli.doc_bytes",
]


def _series_window(out):
    lo, hi = out.window()
    return hi - lo + 1


def _ext_degree(args, out):
    return out[1].r // args[0].r


# counters read off a wrapped call's arguments and result:
# function metric -> [(counter, value of one call)]
_EXTRAS = {
    "cartier.expand_combination": [
        ("cartier.expand_combination.coeffs", lambda args, out: _series_window(out)),
    ],
    "search.check_candidate": [
        ("search.check_candidate.hits", lambda args, out: int(out is not None)),
    ],
    "search.normalize_epsilons": [
        ("search.normalize_epsilons.ext_degree", _ext_degree),
    ],
    "deform.rigidity_check": [
        ("deform.rigidity_check.directions", lambda args, out: len(out["directions"])),
    ],
    "sigdata.enumerate_signatures": [
        ("sigdata.enumerate_signatures.signatures", lambda args, out: len(out)),
    ],
}


class Tracer:
    """Call counts, self times and counters of the wrapped functions."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing = []
        self._open = []  # time covered by child spans, one slot per open span
        self._patches = []  # (namespace object, attribute, original)
        self.patched = []  # "namespace.attribute" of every patched name
        # expand_combination calls made inside rigidity_check, and the
        # directions (the zero direction included) they served
        self.rigidity_expansions = 0
        self.rigidity_directions = 0

    # -- spans ---------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called `name`."""
        opened = self._open
        opened.append(0.0)
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = _clock() - t0
            child = opened.pop()
            self.self_s[name] = self.self_s.get(name, 0.0) + dt - child
            self.calls[name] = self.calls.get(name, 0) + 1
            if opened:
                opened[-1] += dt

    def _wrapper(self, name, fn):
        extras = _EXTRAS.get(name, ())
        span = self.span
        counters = self.counters
        rigidity = name == "deform.rigidity_check"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rigidity:
                before = self.calls.get("cartier.expand_combination", 0)
            out = span(name, fn, *args, **kwargs)
            for metric, value in extras:
                counters[metric] += value(args, out)
            if rigidity:
                self.rigidity_expansions += (
                    self.calls.get("cartier.expand_combination", 0) - before
                )
                self.rigidity_directions += len(out["directions"]) + 1
            return out

        return traced

    # -- patching ------------------------------------------------------

    def install(self):
        """Wrap every function of LAYERS wherever the package binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import defdatum  # noqa: F401  (the package must be importable)

        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "defdatum" or key.startswith("defdatum."))
        ]
        namespaces = []
        for mod in modules:
            namespaces.append(mod)
            for value in list(vars(mod).values()):
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    namespaces.append(value)
        self.missing = []
        for layer, owner, attr, name in LAYERS:
            mod = sys.modules.get("defdatum." + layer)
            holder = getattr(mod, owner, None) if owner else mod
            original = vars(holder).get(attr) if holder is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrapper(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, value))
                        setattr(ns, key, wrapper)
        self.patched = sorted(
            f"{getattr(ns, '__module__', '') + '.' if isinstance(ns, type) else ''}"
            f"{ns.__name__}.{key}"
            for ns, key, _ in self._patches
        )

    def uninstall(self):
        for ns, key, value in reversed(self._patches):
            setattr(ns, key, value)
        self._patches = []
