"""Regenerate data/datums.json, the stored datum documents, from `defdatum search`.

Run from the root of the repository:

    python3 perfbench/make_data.py

A name "p,m,n,r" takes the first datum of the only signature of
`defdatum search --p p --m m --points n --r r` that has data; a name
"p,m,n,r/b0,b0,..." picks the signature by its residues b0.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from defdatum.cli import main as cli_main  # noqa: E402

import workloads  # noqa: E402


def pick(name, tmp):
    config, _, b0 = name.partition("/")
    p, m, n, r = (int(v) for v in config.split(","))
    out = Path(tmp) / "search.json"
    args = ["search", "--p", p, "--m", m, "--points", n, "--r", r, "--out", out]
    cli_main.main(args=[str(a) for a in args], standalone_mode=False)
    with open(out) as fh:
        results = json.load(fh)["results"]
    chosen = [
        res for res in results
        if res["data"] and (not b0 or workloads._b0(res["signature"]) == [int(v) for v in b0.split(",")])
    ]
    if len(chosen) != 1:
        raise SystemExit(f"{name}: {len(chosen)} matching signatures with data")
    datum = dict(chosen[0]["data"][0])
    if not datum.pop("verification")["passed"]:
        raise SystemExit(f"{name}: the datum does not verify")
    return {"name": name, "datum": datum}


def main():
    names = sorted(set(workloads.VERIFY_DOCS) | {n for _, n in workloads.VERIFY_ALTERED}
                   | set(workloads.RIGIDITY_DOCS))
    with tempfile.TemporaryDirectory() as tmp:
        entries = [pick(name, tmp) for name in names]
    with open(workloads.DATA, "w") as fh:
        json.dump(entries, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(entries)} documents to {workloads.DATA}")


if __name__ == "__main__":
    main()
