"""One benchmark process: set a workload up, run it in whole rounds, check it.

Started by run.py, which passes its clock reading at the moment it started
this process (`--t0`), so that set-up time counts from process start.  A
round runs every item of the plan once, one at a time.  Rounds repeat
while another one still fits in `--seconds`, with at least two (three when
tracing: an untraced warm round, a traced round and an untraced round).
With `--trace 1` odd rounds run under the tracer and even rounds without
it.  The last line of standard output is a JSON summary.

The machine this runs on changes speed by up to a third within minutes
(other tenants), and process CPU time changes with it.  So a fixed
pure-Python reference loop is timed between items, once per REF_EVERY_S of
item time, and every time reported is scaled by NOMINAL_REF_S over the
median reference time of its round: seconds on a machine where the loop
takes NOMINAL_REF_S.  The raw times are kept in the summary beside them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

clock = time.perf_counter
REF_EVERY_S = 0.5
NOMINAL_REF_S = 0.025  # about the loop's time on a 2-core x86 VM at 2 GHz


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def ref_loop():
    """A fixed pure-Python loop; its time tracks the machine's speed.

    It allocates nothing that outlives an iteration, so the program's heap
    does not slow it down.
    """
    t0 = clock()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) % 1_000_003
    return clock() - t0


def at_reference_speed(seconds, refs):
    return seconds * NOMINAL_REF_S / statistics.median(refs)


def run_round(ctx, plan, tracer, refs):
    """Time every item once; returns (wall, cpu, item times, results, errors).

    After each item the reference loop is timed once for every REF_EVERY_S
    of item time since the last sample; the samples go to `refs`, and their
    time is outside every item and the round.
    """
    times, results, errors = [], [], []
    wall = cpu = owed = 0.0
    # every round starts from an empty cyclic-garbage heap, so collections
    # land at the same points of each round
    gc.collect()
    if tracer is not None:
        tracer.install()
        ctx.tracer = tracer
    try:
        for item in plan.items:
            c0, t0 = cpu_seconds(), clock()
            try:
                result, error = item.run(ctx), None
            except Exception as exc:  # an operation that raises has failed
                result, error = None, f"{type(exc).__name__}: {exc}"
            t1 = clock()
            cpu += cpu_seconds() - c0
            wall += t1 - t0
            times.append(t1 - t0)
            results.append(result)
            errors.append(error)
            # one sample per REF_EVERY_S of item time keeps the density even
            owed += t1 - t0
            while owed >= REF_EVERY_S:
                refs.append(ref_loop())
                owed -= REF_EVERY_S
    finally:
        if tracer is not None:
            tracer.uninstall()
            ctx.tracer = None
    return wall, cpu, times, results, errors


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args()

    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        ctx, plan = workloads.build(args.workload, args.seed, workdir)
        setup_raw_s = clock() - args.t0
        # the machine's speed right after set-up, to scale set-up by
        refs = [ref_loop() for _ in range(3)]
        setup = {"setup_raw_s": setup_raw_s, "setup_s": at_reference_speed(setup_raw_s, refs)}
        if args.setup_only:
            print(json.dumps(setup))
            return
        summary = measure(ctx, plan, args, refs)
        summary.update(setup)
        print(json.dumps(summary))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(ctx, plan, args, refs):
    tracer = tracing.Tracer() if args.trace else None
    rounds, reference, verdicts, failures = [], None, None, []
    attempted = failed = wrong = 0
    t_start = clock()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        round_refs = []
        wall, cpu, times, results, errors = run_round(
            ctx, plan, tracer if traced else None, round_refs)
        outs = []
        for k, (item, res) in enumerate(zip(plan.items, results)):
            try:
                outs.append(item.serialize(res) if errors[k] is None else None)
            except Exception as exc:  # an unreadable result fails its operation
                outs.append(None)
                errors[k] = f"{type(exc).__name__}: {exc}"
        if reference is None:
            # later rounds are checked against the first round's outputs,
            # which carry the first round's verdicts
            reference, verdicts = outs, plan.check(results, outs)
        problems = [
            bad if out == ref else ["output differs from the first round's"]
            for out, ref, bad in zip(outs, reference, verdicts)
        ]
        for item, err, bad in zip(plan.items, errors, problems):
            attempted += 1
            if err is not None or bad:
                failed += 1
                wrong += err is None
                if len(failures) < 20:
                    failures.append({"item": item.name, "error": err, "problems": bad[:5]})
        rounds.append({"traced": traced, "wall": wall, "cpu": cpu, "items": times,
                       "refs": round_refs})
        elapsed = clock() - t_start
        minimum = 3 if tracer is not None else 2
        if len(rounds) >= minimum and elapsed + wall > args.seconds:
            break
    refs += [ref_loop() for _ in range(3)]
    for r in rounds:
        r["scale"] = at_reference_speed(1.0, r["refs"] or refs)
    plain = [r for r in rounds if not r["traced"]]
    summary = {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "failures": failures,
        "items": [item.name for item in plan.items],
        "rounds": rounds,
        # means over rounds average the machine's drift over the whole run
        "wall_s": statistics.fmean(r["wall"] * r["scale"] for r in plain),
        "cpu_s": statistics.fmean(r["cpu"] * r["scale"] for r in plain),
        "item_p50_s": statistics.median(
            statistics.fmean(per_round)
            for per_round in zip(*([t * r["scale"] for t in r["items"]] for r in plain))
        ),
        "wall_raw_s": statistics.fmean(r["wall"] for r in plain),
        "cpu_raw_s": statistics.fmean(r["cpu"] for r in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ref_loop_s": statistics.median(refs),
    }
    if tracer is not None:
        summary["layers"] = per_layer(tracer, rounds, summary)
        if args.trace_file:
            write_trace(args.trace_file, tracer, rounds)
    return summary


def per_layer(tracer, rounds, summary):
    """Per-layer metrics, per traced round."""
    traced = [r for r in rounds if r["traced"]]
    warm = [r for r in rounds[1:] if not r["traced"]]
    n = len(traced)

    def per_round(total):
        if isinstance(total, int) and total % n == 0:
            return total // n
        return total / n

    out = {}
    for _, _, _, name in tracing.LAYERS:
        out[f"{name}.calls"] = (per_round(tracer.calls.get(name, 0)), "count")
        out[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0) / n, "s")
    for name in tracing.COUNTERS:
        out[name] = (per_round(tracer.counters[name]), "B" if name.endswith("bytes") else "count")
    calls = tracer.calls.get("search.check_candidate", 0)
    hits = tracer.counters["search.check_candidate.hits"]
    out["search.hit_ratio"] = (hits / calls if calls else 0.0, "ratio")
    out["deform.expansions_per_direction"] = (
        tracer.rigidity_expansions / tracer.rigidity_directions
        if tracer.rigidity_directions else 0.0,
        "count/direction",
    )
    out["cli.self_s"] = (tracer.self_s.get(tracing.CLI_SPAN, 0.0) / n, "s")
    out["machine.ref_loop_s"] = (summary["ref_loop_s"], "s")
    out["trace.overhead_ratio"] = (
        statistics.median(r["wall"] * r["scale"] for r in traced)
        / statistics.median(r["wall"] * r["scale"] for r in warm),
        "ratio",
    )
    return out


def write_trace(path, tracer, rounds):
    names = sorted(set(tracer.calls) | set(tracer.self_s))
    data = {
        "traced_rounds": sum(r["traced"] for r in rounds),
        "patched": tracer.patched,
        "missing": tracer.missing,
        "functions": {
            name: {"calls": tracer.calls.get(name, 0), "self_s": tracer.self_s.get(name, 0.0)}
            for name in names
        },
        "counters": tracer.counters,
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
