"""defdatum benchmark: one workload per call, end to end or traced per layer.

Run from the root of the repository:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Workloads: scan, verify, rigidity, invariants (see perfbench/README.md).
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1, a separate traced process gives the
per-layer metrics instead.  Each run also writes its full record under
.perfbench/results/.

Set-up time is measured in fresh processes: SETUP_PROBES processes that only
set up, plus the measuring process itself; setup_s is their median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan", "verify", "rigidity", "invariants")
SETUP_PROBES = 4
DEADLINE_S = 170.0

T_START = time.perf_counter()


def spawn(args, extra, trace_file=None):
    """Run worker.py to its end; its JSON summary."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + extra
    if trace_file:
        cmd += ["--trace-file", str(trace_file)]
    remaining = DEADLINE_S - (time.perf_counter() - T_START)
    if remaining <= 0:
        raise SystemExit("benchmark: out of time before starting a process")
    cmd += ["--t0", repr(time.perf_counter())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("benchmark: worker ran past the deadline")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"benchmark: worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "defdatum" / "__init__.py").is_file():
        sys.exit(f"benchmark: no defdatum sources under {ROOT / 'src'}")

    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"args": vars(args)}
    if args.trace:
        summary = spawn(args, [], trace_file=results / f"{stem}-layers.json")
        metrics = summary["layers"]
    else:
        probes = [spawn(args, ["--setup-only"]) for _ in range(SETUP_PROBES)]
        summary = spawn(args, [])
        record["setup_samples"] = probes + [
            {key: summary[key] for key in ("setup_s", "setup_raw_s")}
        ]
        metrics = {
            "wall_s": (summary["wall_s"], "s"),
            "cpu_s": (summary["cpu_s"], "s"),
            "item_p50_s": (summary["item_p50_s"], "s"),
            "setup_s": (statistics.median(s["setup_s"] for s in record["setup_samples"]), "s"),
            "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
        }
    result = {
        "correct": summary["wrong"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(worker=summary, result=result)
    with open(results / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for failure in summary["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
