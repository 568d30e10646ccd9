"""The four workloads: their inputs, their operations and their checks.

`build(name, seed, workdir)` does the whole set-up of a run: it imports
defdatum, reads the stored datum documents, makes the seeded inputs and
builds every FieldDescriptor the operations name.  It returns a `Plan`
whose items are the operations of one round.

Each item's `run(ctx)` is the timed call into the program and returns its
raw result.  `serialize` turns that result into JSON-able data outside the
timed and traced part; `Plan.check` checks one round of serialized
outputs against answers worked out apart from the program (see oracle.py)
or against properties the method must have, and returns the problems of
each item.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path

import oracle

DATA = Path(__file__).resolve().parent / "data" / "datums.json"

# (p, m, |B|, r): one item scans every admissible signature of one.  Few
# candidates carry a datum; (p, 2, 4, r) pairs over F_p and F_{p^r} let the
# F_p data be found again, embedded, in the larger field.
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

# stored documents re-verified as they are
VERIFY_DOCS = ["3,2,3,1", "5,2,3,1", "5,2,4,1", "2,3,3,1", "5,4,3,1/2,1,1", "7,3,3,1/1,1,1"]
# (alteration, stored document); the seed picks the altered value
VERIFY_ALTERED = [("move_tau", "5,2,4,1"), ("scale_lambda", "5,2,3,1"), ("scale_epsilon", "3,2,3,1")]

RIGIDITY_DOCS = ["5,2,4,1", "5,2,4,2", "3,4,4,1/3,0,0,1"]

INVARIANT_PRIMES = (2, 3, 5, 7, 11, 13)
INVARIANT_M = range(2, 13)
INVARIANT_POINTS = range(3, 7)
COHOMOLOGY_PRIMES = (2, 3)
# grid points small enough for the benchmark's own residue-tuple scan
ORACLE_SCAN_LIMIT = 20000


@dataclass
class Item:
    name: str
    run: object  # ctx -> raw result
    serialize: object  # raw result -> JSON-able data
    info: dict = field(default_factory=dict)


@dataclass
class Plan:
    items: list
    check: object  # (raw results, serialized outputs) -> problems per item


class Context:
    """What an item may call: the package modules and the CLI."""

    def __init__(self, mods):
        self.mods = mods
        self.tracer = None  # set while a traced round runs

    def cli(self, args, out_path):
        """Run a defdatum command in this process; its exit status."""
        main = self.mods["cli"].main
        Path(out_path).unlink(missing_ok=True)

        def call():
            try:
                main.main(args=list(args) + ["--out", str(out_path)],
                          prog_name="defdatum", standalone_mode=False)
                return 0
            except SystemExit as exc:
                return exc.code

        if self.tracer is None:
            return call()
        status = self.tracer.span("cli", call)
        self.tracer.counters["cli.doc_bytes"] += os.path.getsize(out_path)
        return status


def _import():
    from defdatum import algebra, cartier, cli, deform, search, sigdata

    return {
        "algebra": algebra, "cartier": cartier, "cli": cli, "deform": deform,
        "search": search, "sigdata": sigdata,
    }


def _read_docs():
    with open(DATA) as fh:
        return {entry["name"]: entry["datum"] for entry in json.load(fh)}


def _b0(sig_json):
    return [pt["b0"] for pt in sig_json["points"]]


def _field_key(elem):
    return (elem["p"], elem["r"])


def build(name, seed, workdir):
    mods = _import()
    rng = random.Random(seed)
    builders = {"scan": _scan, "verify": _verify, "rigidity": _rigidity,
                "invariants": _invariants}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}")
    plan, fields = builders[name](mods, rng, Path(workdir))
    for p, r in sorted(fields):
        mods["algebra"].FieldDescriptor.get(p, r)
    return Context(mods), plan


# ---------------------------------------------------------------------------
# scan: search_field over larger fields


def _scan(mods, rng, workdir):
    sigdata = mods["sigdata"]
    FieldDescriptor = mods["algebra"].FieldDescriptor
    items, fields = [], set()
    for p, m, n, r in SCAN_CONFIGS:
        desc = FieldDescriptor.get(p, r)
        sigs = sigdata.enumerate_signatures(p, m, n)
        fields.add((p, r))
        fields.update((p, r * sig.s // gcd(r, sig.s)) for sig in sigs)
        items.append(Item(
            f"scan {p},{m},{n},{r}",
            lambda ctx, sigs=sigs, desc=desc: [
                ctx.mods["search"].search_field(sig, desc) for sig in sigs
            ],
            lambda per_sig: [[dt.to_json() for dt in data] for data in per_sig],
            {"config": (p, m, n, r), "b0": [_b0(sig.to_json()) for sig in sigs]},
        ))
    rng.shuffle(items)
    return Plan(items, lambda raws, outs: _scan_check(mods, items, raws, outs)), fields


def _tau_key(entry, field):
    """The datum's tau tuple with interchangeable new points sorted."""
    sig = entry["signature"]
    new_b = [pt["b0"] for pt in sig["points"] if pt["role"] == "new"]
    taus = [tuple(t["coeffs"]) for t in entry["tau"]]
    out = list(taus)
    for b in set(new_b):
        idx = [i for i, bb in enumerate(new_b) if bb == b]
        vals = sorted((taus[i] for i in idx), key=lambda c: oracle.key(c, field.p))
        for i, v in zip(idx, vals):
            out[i] = v
    return tuple(out)


def _scan_check(mods, items, raws, outs):
    """One search_field result list per signature of every scanned config."""
    problems = [[] for _ in items]
    found = {}  # (p, m, |B|, b0) -> {r: (item index, tau tuples over F_p)}
    for k, (item, raw, out) in enumerate(zip(items, raws, outs)):
        p, m, n, r = item.info["config"]
        for b0, data, dts in zip(item.info["b0"], raw, out):
            consts = _check_scan(mods, problems[k], (p, m, n, r), b0, data, dts)
            found.setdefault((p, m, n, tuple(b0)), {})[r] = (k, consts)
    for scans in found.values():
        if 1 not in scans:
            continue
        _, small = scans[1]
        for r, (k, big) in scans.items():
            for taus in sorted(small - big):
                problems[k].append(f"F_p datum tau = {taus} missing from the degree-{r} scan")
    return problems


def _check_scan(mods, bad, config, b0, data, out):
    """Checks of one signature's scan; returns its tau tuples lying in F_p."""
    cartier = mods["cartier"]
    p, m, n, r = config
    keys = {}
    for datum, dt in zip(data, out):
        fld = oracle.GF.of(dt["field"])
        eps = [tuple(e["coeffs"]) for e in dt["epsilon"]]
        lam = [tuple(e["coeffs"]) for e in dt["lambda"]]
        s = len(eps)
        if any(e == fld.const(0) for e in eps + lam):
            bad.append("zero epsilon or lambda")
        for i in range(s):
            rhs = fld.mul(fld.frobenius_inverse(eps[(i + 1) % s]), lam[i])
            if eps[i] != rhs:
                bad.append(f"{b0}: epsilon relation fails at level {i}")
        if not cartier.is_cartier_fixed(cartier.omega_combination(datum)):
            bad.append(f"{b0}: C(omega) != omega")
        keys.setdefault(_field_key(dt["field"]), set()).add(_tau_key(dt, fld))
    for dt in out:
        fld = oracle.GF.of(dt["field"])
        image = dict(dt, tau=[dict(t, coeffs=list(fld.frobenius(tuple(t["coeffs"]))))
                              for t in dt["tau"]])
        if _tau_key(image, fld) not in keys[_field_key(dt["field"])]:
            bad.append(f"{b0}: tau {_tau_key(dt, fld)} not stable under tau -> tau^p")
    if config == (3, 2, 3, 1):
        golden = [(_b0(dt["signature"]), dt["field"]["r"], dt["tau"],
                   [e["coeffs"] for e in dt["epsilon"]],
                   [l["coeffs"] for l in dt["lambda"]]) for dt in out]
        if golden != [([1, 1, 0], 1, [], [[1]], [[1]])]:
            bad.append(f"(3,2,3,1) is not the README datum z^2 = x(x-1): {golden}")
    if m == 2 and n == 4 and b0 == [1, 0, 0, 1]:
        _check_m2(bad, out, p, r, mods["algebra"].FieldDescriptor)
    # tau tuples whose coordinates all lie in F_p (the constants)
    return {
        tuple(t[0] for t in key)
        for key in (_tau_key(dt, oracle.GF.of(dt["field"])) for dt in out)
        if all(not any(t[1:]) for t in key)
    }


def _check_m2(bad, out, p, r, FieldDescriptor):
    """z^2 = x(x - tau): the data are exactly the closed-form solutions."""
    fields = {_field_key(dt["field"]) for dt in out}
    if fields - {(p, r)}:
        bad.append(f"m = 2 data outside F_{p}^{r}: {sorted(fields)}")
        return
    fld = oracle.GF(p, FieldDescriptor.get(p, r).modulus)
    want = sorted(oracle.m2_special_taus(fld))
    got = sorted(tuple(dt["tau"][0]["coeffs"]) for dt in out)
    if got != want:
        bad.append(f"m = 2 tau set {got} != closed form {want}")
    if any(tuple(l["coeffs"]) != fld.const(1) for dt in out for l in dt["lambda"]):
        bad.append("m = 2 datum with lambda != 1")


# ---------------------------------------------------------------------------
# verify: the verify command on stored and altered documents


def _verify(mods, rng, workdir):
    docs = _read_docs()
    workdir.mkdir(parents=True, exist_ok=True)
    cases = [(name, "stored", docs[name]) for name in VERIFY_DOCS]
    for kind, name in VERIFY_ALTERED:
        cases.append((f"{name} {kind}", kind, _alter(kind, docs[name], rng)))
    rng.shuffle(cases)
    items, fields = [], set()
    for i, (name, kind, doc) in enumerate(cases):
        path, out = workdir / f"verify-in-{i}.json", workdir / f"verify-out-{i}.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        fields.add(_field_key(doc["field"]))
        s = doc["signature"]["s"]
        r = doc["field"]["r"]
        fields.add((doc["field"]["p"], r * s // gcd(r, s)))
        items.append(Item(
            f"verify {name}",
            lambda ctx, path=path, out=out: ctx.cli(["verify", str(path)], out),
            lambda status, out=out: {"status": status, "doc": _load(out)},
            {"kind": kind, "input": doc},
        ))
    return Plan(items, lambda raws, outs: _verify_check(items, outs)), fields


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _alter(kind, doc, rng):
    """A copy of the document with one seeded change.

    move_tau puts the new point on an element of F_p that the closed form
    of oracle.m2_special_taus rules out; scale_lambda multiplies lambda by
    c != 1 in F_p^x, which breaks eps = F^-1(eps) lambda (eps is a unit);
    scale_epsilon multiplies eps by c in F_p^x, which keeps every relation
    because eps is defined only up to F_p-scalars.
    """
    doc = json.loads(json.dumps(doc))
    fld = oracle.GF.of(doc["field"])
    c = fld.const(rng.randrange(2, fld.p))
    if kind == "move_tau":
        if fld.r != 1 or doc["signature"]["m"] != 2:
            raise ValueError("move_tau needs an m = 2 datum over F_p")
        good = set(oracle.m2_special_taus(fld))
        choices = [t for t in fld.elements()[2:] if t not in good]
        doc["tau"][0]["coeffs"] = list(rng.choice(choices))
    elif kind in ("scale_lambda", "scale_epsilon"):
        for e in doc["lambda" if kind == "scale_lambda" else "epsilon"]:
            e["coeffs"] = list(fld.mul(c, tuple(e["coeffs"])))
    else:
        raise ValueError(kind)
    return doc


def _verify_check(items, outs):
    problems = []
    for item, out in zip(items, outs):
        bad = []
        doc, kind = out["doc"], item.info["kind"]
        results = doc.get("results", [])
        if doc.get("command") != "verify" or len(results) != 1:
            bad.append("not a one-datum verify document")
        elif results[0]["datum"] != item.info["input"]:
            bad.append("the document does not echo its input datum")
        else:
            checks = results[0]["verification"]
            if kind == "move_tau" or kind == "scale_lambda":
                if doc["passed"] or checks["passed"] or out["status"] != 1:
                    bad.append(f"altered document ({kind}) accepted")
                elif checks["cartier_fixed"] and checks["epsilon_relations"]:
                    bad.append(f"{kind}: rejected without a Cartier or epsilon failure")
            elif not (doc["passed"] and checks["passed"] and out["status"] == 0):
                failing = sorted(k for k, v in checks.items() if not v)
                bad.append(f"{kind} document rejected: {failing}")
        problems.append(bad)
    return problems


# ---------------------------------------------------------------------------
# rigidity: rigidity_check on stored data with one new point


def _rigidity(mods, rng, workdir):
    docs = _read_docs()
    search = mods["search"]
    names = list(RIGIDITY_DOCS)
    rng.shuffle(names)
    items, fields = [], set()
    for name in names:
        doc = docs[name]
        datum = search.DeformationDatum.from_json(doc)
        p, r, s = doc["field"]["p"], doc["field"]["r"], doc["signature"]["s"]
        fields.update({(p, r), (p, s), (p, r * s // gcd(r, s))})
        items.append(Item(
            f"rigidity {name}",
            lambda ctx, datum=datum: ctx.mods["deform"].rigidity_check(datum),
            lambda report: report,
            {"input": doc},
        ))
    return Plan(items, lambda raws, outs: list(map(_rigidity_check, items, outs))), fields


def _rigidity_check(item, report):
    doc = item.info["input"]
    bad = []
    for key in ("rigid", "zero_direction_special", "zero_roundtrip"):
        if report[key] is not True:
            bad.append(f"{key} is {report[key]}")
    q = doc["field"]["p"] ** doc["field"]["r"]
    want = len(doc["tau"]) * (q - 1)
    if len(report["directions"]) != want:
        bad.append(f"{len(report['directions'])} directions, expected |B_new|(q-1) = {want}")
    for entry in report["directions"]:
        if not entry["roundtrip"] or not entry["fails_specialty_at"]:
            bad.append(f"direction {entry['delta']} keeps specialty or loses its round trip")
    return bad


# ---------------------------------------------------------------------------
# invariants: signature tables and cohomology documents


def _invariants(mods, rng, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    items = []
    for p in INVARIANT_PRIMES:
        for m in INVARIANT_M:
            if gcd(p, m) != 1:
                continue
            for n in INVARIANT_POINTS:
                items.append(Item(
                    f"signatures {p},{m},{n}",
                    lambda ctx, key=(p, m, n): _signature_table(ctx.mods["sigdata"], *key),
                    _table_serialize,
                    {"grid": (p, m, n)},
                ))
    for p in COHOMOLOGY_PRIMES:
        cseed = rng.randrange(10**6)
        out = workdir / f"cohomology-{p}.json"
        items.append(Item(
            f"cohomology p={p} seed={cseed}",
            lambda ctx, args=["cohomology", "--p", str(p), "--seed", str(cseed)], out=out:
                ctx.cli(args, out),
            lambda status, out=out: {"status": status, "doc": _load(out)},
            {"cohomology": p},
        ))
    rng.shuffle(items)
    check = lambda raws, outs: list(map(_invariants_check, items, outs))  # noqa: E731
    return Plan(items, check), {(p, 1) for p in INVARIANT_PRIMES}


def _signature_table(sigdata, p, m, n):
    sigs = sigdata.enumerate_signatures(p, m, n)
    return [(sig, sigdata.derived_invariants(sig), sigdata.is_special(sig)) for sig in sigs]


def _table_serialize(rows):
    out = []
    for sig, inv, special in rows:
        out.append({
            "signature": sig.to_json(),
            "orbits": [list(sig.orbit(j)) for j in range(sig.n_points)],
            "isotypic_degrees": list(inv["isotypic_degrees"]),
            "isotypic_cohomology": [list(pair) for pair in inv["isotypic_cohomology"]],
            "special": bool(special),
        })
    return out


def _invariants_check(item, out):
    if "cohomology" in item.info:
        doc, bad = out["doc"], []
        if out["status"] != 0 or not doc.get("passed") or not all(doc["checks"].values()):
            bad.append("cohomology document did not pass")
        for d, pair in doc.get("cech", {}).items():
            if tuple(pair) != oracle.riemann_roch(int(d)):
                bad.append(f"cech h(O({d})) = {pair}")
        return bad
    p, m, n = item.info["grid"]
    bad = []
    s = oracle.multiplicative_order(p, m)
    for row in out:
        sig = row["signature"]
        pts = sig["points"]
        tag = f"{p},{m},{n} {[pt['b0'] for pt in pts]}"
        if (sig["p"], sig["m"], sig["s"], len(pts)) != (p, m, s, n):
            bad.append(f"{tag}: wrong p, m, s or point count")
            continue
        base = [pt for pt in pts if pt["role"] == "B0"]
        new = [pt for pt in pts if pt["role"] == "new"]
        if len(base) != 3 or any(pt["nu"] != 0 for pt in base):
            bad.append(f"{tag}: not a three-point base triple")
        if any(pt["b0"] % m == 0 or pt["nu"] != 1 for pt in new):
            bad.append(f"{tag}: new point with b0 = 0 or nu != 1")
        orbits = [oracle.orbit(p, m, pt["b0"]) for pt in pts]
        if [tuple(o) for o in row["orbits"]] != orbits:
            bad.append(f"{tag}: orbits are not b^(i+1) = p b^(i) mod m")
        for i in range(s):
            if sum(o[i] for o in orbits) != m:
                bad.append(f"{tag}: level {i} residues do not sum to m")
        degrees = [-sum(o[i] for o in orbits) // m for i in range(s)]
        if row["isotypic_degrees"] != degrees:
            bad.append(f"{tag}: isotypic degrees {row['isotypic_degrees']} != {degrees}")
        if [tuple(pair) for pair in row["isotypic_cohomology"]] != [
            oracle.riemann_roch(d) for d in degrees
        ]:
            bad.append(f"{tag}: isotypic (h0, h1) differ from Riemann-Roch")
        if not row["special"]:
            bad.append(f"{tag}: enumerated signature is not special")
    if oracle.scan_size(m, n) <= ORACLE_SCAN_LIMIT and len(out) != oracle.count_signatures(p, m, n):
        bad.append(f"{len(out)} signatures, residue-tuple scan finds "
                   f"{oracle.count_signatures(p, m, n)}")
    return bad
