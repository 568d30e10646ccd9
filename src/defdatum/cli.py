"""Batch command line interface emitting deterministic JSON documents.

Every subcommand writes a single document embedding the effective
configuration, library versions and per-check outcomes; identical
configuration yields byte-identical output.  Exit status: 0 on success,
1 when an embedded verification fails, 2 on usage errors.

Each command imports only the layers it runs: ``enumerate`` and
``cohomology`` load neither ``search``, ``deform`` nor ``cartier``.
"""

from __future__ import annotations

import json
import os
import random
import sys

import click

from . import __version__, homcoh, sigdata
from .algebra import FieldDescriptor


def _merge(config, **flags):
    """Effective settings: explicit flags win over the config file."""
    out = dict(config or {})
    for key, value in flags.items():
        if value is not None:
            out[key] = value
    return out


_INT_SETTINGS = ("p", "m", "points", "r", "seed", "budget")


def _load_config(path):
    """The settings of a --config file: a JSON object whose p, m, points,
    r, seed and budget, where present, are integers (not bools)."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except ValueError as exc:
        raise click.UsageError(f"--config {path} is not JSON ({exc})")
    if not isinstance(config, dict):
        raise click.UsageError(f"--config {path} is not a JSON object")
    for key in _INT_SETTINGS:
        if key in config and type(config[key]) is not int:
            raise click.UsageError(f"--config {path}: {key} = {config[key]!r} is not an integer")
    return config


def _document(command, config, body):
    doc = {
        "schema": "defdatum/1",
        "command": command,
        "config": config,
        "versions": {
            "defdatum": __version__,
            "python": "%d.%d" % sys.version_info[:2],
        },
    }
    doc.update(body)
    return doc


def _emit(doc, out_path):
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _check_prime_field(p, r):
    try:
        return FieldDescriptor.get(p, r)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _field_and_signatures(cfg, required):
    """F_{p^r} and the admissible signatures of (p, m, points).

    Every key of ``required`` must be set; r is 1 unless it is required.
    A missing setting, a bad field or bad enumeration arguments exit 2.
    """
    for key in required:
        if cfg.get(key) is None:
            raise click.UsageError(f"missing required setting --{key}")
    field = _check_prime_field(cfg["p"], cfg["r"] if "r" in required else 1)
    try:
        return field, sigdata.enumerate_signatures(cfg["p"], cfg["m"], cfg["points"])
    except ValueError as exc:
        raise click.UsageError(str(exc))


@click.group()
def main():
    """Exact search and verification of special deformation data."""


def _check_out_dir(ctx, param, value):
    """--out names a file in an existing directory, checked before any work."""
    if value is not None:
        parent = os.path.dirname(value) or "."
        if not os.path.isdir(parent):
            raise click.BadParameter(f"{parent!r} is not an existing directory", ctx, param)
    return value


_shared = [
    click.option(
        "--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None
    ),
    click.option(
        "--out",
        "out_path",
        type=click.Path(dir_okay=False),
        default=None,
        callback=_check_out_dir,
    ),
]


def _with_shared(fn):
    for deco in reversed(_shared):
        fn = deco(fn)
    return fn


@main.command()
@click.option("--p", type=int, default=None)
@click.option("--m", type=int, default=None)
@click.option("--points", type=int, default=None)
@_with_shared
def enumerate(p, m, points, config_path, out_path):
    """List all admissible special signatures for (p, m, |B|)."""
    cfg = _merge(_load_config(config_path), p=p, m=m, points=points)
    _, sigs = _field_and_signatures(cfg, ("p", "m", "points"))
    doc = _document(
        "enumerate", cfg, {"signatures": [sig.to_json() for sig in sigs]}
    )
    _emit(doc, out_path)


@main.command("search")
@click.option("--p", type=int, default=None)
@click.option("--m", type=int, default=None)
@click.option("--points", type=int, default=None)
@click.option("--r", type=int, default=None)
@_with_shared
def search_cmd(p, m, points, r, config_path, out_path):
    """Search F_{p^r} for data of every admissible signature and verify them."""
    from . import search

    cfg = _merge(_load_config(config_path), p=p, m=m, points=points, r=r)
    cfg.setdefault("points", 3)
    field, sigs = _field_and_signatures(cfg, ("p", "m", "r"))
    results = []
    all_pass = True
    for sig in sigs:
        data = search.search_field(sig, field)
        entries = []
        for datum in data:
            checks = search.verify_datum(datum)
            all_pass = all_pass and checks["passed"]
            entry = datum.to_json()
            entry["verification"] = checks
            entries.append(entry)
        results.append(
            {
                "signature": sig.to_json(),
                "data": entries,
                "frobenius_orbits": search.frobenius_orbits(data),
            }
        )
    doc = _document("search", cfg, {"results": results, "passed": all_pass})
    _emit(doc, out_path)
    if not all_pass:
        raise SystemExit(1)


@main.command()
@click.argument("datum_file", type=click.Path(exists=True, dir_okay=False))
@_with_shared
def verify(datum_file, config_path, out_path):
    """Re-verify a datum document produced by search."""
    from . import search

    cfg = _merge(_load_config(config_path), datum_file=datum_file)
    try:
        with open(datum_file) as fh:
            obj = json.load(fh)
        data = obj if isinstance(obj, list) else [obj]
        if not data:
            raise ValueError("an empty list holds no datum")
        datums = [search.DeformationDatum.from_json(item) for item in data]
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise click.UsageError(
            f"{datum_file} is not a datum document ({type(exc).__name__}: {exc})"
        )
    entries = []
    all_pass = True
    for datum in datums:
        checks = search.verify_datum(datum)
        all_pass = all_pass and checks["passed"]
        entries.append({"datum": datum.to_json(), "verification": checks})
    doc = _document("verify", cfg, {"results": entries, "passed": all_pass})
    _emit(doc, out_path)
    if not all_pass:
        raise SystemExit(1)


@main.command()
@click.option("--p", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--budget", type=int, default=None)
@_with_shared
def cohomology(p, seed, budget, config_path, out_path):
    """Cech table, group-cohomology vanishing and Picard invariants."""
    cfg = _merge(_load_config(config_path), p=p, seed=seed, budget=budget)
    cfg.setdefault("p", 3)
    cfg.setdefault("seed", 0)
    cfg.setdefault("budget", 3**6)
    _check_prime_field(cfg["p"], 1)
    prime = cfg["p"]
    rng = random.Random(cfg["seed"])
    checks = {}

    cech = {}
    for d in range(-6, 7):
        h0, h1 = homcoh.cech_line_bundle(prime, d)
        cech[str(d)] = [h0, h1]
        checks[f"cech_{d}"] = (h0, h1) == (max(d + 1, 0), max(-d - 1, 0))

    vanishing = {}
    for s in (1, 2):
        M = homcoh.coinduced_module(prime, s)
        dims = homcoh.group_cohomology(M, 2)
        key = f"coinduced_s{s}"
        vanishing[key] = dims
        checks[key] = dims == [M.invariant_dim_at_zero(), 0, 0]
        checks[key + "_homotopy"] = homcoh.verify_resolution_homotopy(M, 2)

    pic = []
    for trial in range(6):
        # one random differential at a time keeps d.d = 0 automatic
        sizes = [rng.randint(0, 2), rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 2)]
        live = trial % 3
        mats = [
            [
                [rng.randrange(prime) if i == live else 0 for _ in range(sizes[i])]
                for _ in range(sizes[i + 1])
            ]
            for i in range(3)
        ]
        cx = homcoh.CochainComplex(prime, tuple(sizes), tuple(mats), start_degree=-1)
        try:
            inv = homcoh.pic_invariants(cx, budget=cfg["budget"])
        except homcoh.EnumerationBudgetExceeded as exc:
            raise click.UsageError(
                f"--budget {cfg['budget']} is too small for Picard trial {trial} "
                f"(graded pieces of sizes {sizes} over F_{prime}): {exc}"
            )
        dims = homcoh.cohomology_dims(cx)
        ok = len(inv.pi0) == dims[2] and len(inv.aut) == dims[1]
        pic.append({"dims": sizes, "pi0": len(inv.pi0), "aut": len(inv.aut)})
        checks[f"pic_{trial}"] = ok

    doc = _document(
        "cohomology",
        cfg,
        {
            "cech": cech,
            "group_vanishing": vanishing,
            "pic": pic,
            "checks": checks,
            "passed": all(checks.values()),
        },
    )
    _emit(doc, out_path)
    if not all(checks.values()):
        raise SystemExit(1)


@main.command()
@click.option("--p", type=int, default=None)
@click.option("--m", type=int, default=None)
@click.option("--points", type=int, default=None)
@click.option("--r", type=int, default=None)
@_with_shared
def rigidity(p, m, points, r, config_path, out_path):
    """Search, then run the first-order rigidity experiment on each datum."""
    from . import deform, search

    cfg = _merge(_load_config(config_path), p=p, m=m, points=points, r=r)
    field, sigs = _field_and_signatures(cfg, ("p", "m", "points", "r"))
    results = []
    all_rigid = True
    for sig in sigs:
        for datum in search.search_field(sig, field):
            report = deform.rigidity_check(datum)
            all_rigid = all_rigid and report["rigid"]
            results.append(
                {
                    "datum": datum.to_json(),
                    "rigid": report["rigid"],
                    "zero_direction_special": report["zero_direction_special"],
                    "directions": report["directions"],
                }
            )
    doc = _document("rigidity", cfg, {"results": results, "passed": all_rigid})
    _emit(doc, out_path)
    if not all_rigid:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
