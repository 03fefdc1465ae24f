"""Fast self-check of the benchmark harness on a tiny input (``gamma --n 4``).

Usage (from the repository root): python3 bench/selfcheck.py

Checks that the pinned-verdict check accepts a real report and rejects
altered ones, and that both modes, the traced one included, run clean and
print a result with exactly the metrics ``BENCHMARK.json`` names.  Takes a few seconds; exit code 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import sys

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def golden_check_problems(golden: dict) -> list[str]:
    """The verdict check must accept the real job and flag each alteration."""
    small = golden[run.SMALL]
    child, problems = run.run_job(run.SMALL, 0, golden)
    out = [f"real job flagged: {p}" for p in problems]
    doc = json.loads(child.stdout)

    def altered(edit) -> str:
        d = copy.deepcopy(doc)
        edit(d)
        return json.dumps(d)

    cases = {
        "changed computed value": (0, altered(lambda d: d["claims"][0].update(computed=-1))),
        "flipped verdict": (0, altered(lambda d: d["claims"][0].update({"pass": False}))),
        "missing claim": (0, altered(lambda d: d["claims"].pop())),
        "unpinned failing claim": (0, altered(lambda d: d["claims"].append(
            dict(d["claims"][0], name="extra", **{"pass": False})))),
        "wrong exit code": (1, child.stdout),
        "budget exit code": (3, child.stdout),
        "no report": (0, ""),
    }
    for label, (code, stdout) in cases.items():
        if not run.report_problems(small, code, stdout):
            out.append(f"golden check missed: {label}")
    informational = altered(lambda d: d["claims"].append(
        dict(d["claims"][0], name="extra", **{"pass": None})))
    if run.report_problems(small, 0, informational):
        out.append("golden check rejected an added informational claim")
    return out


def result_problems(trace: bool) -> list[str]:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]
    result, record = run.run(run.SMALL, 0, 0.0, trace)
    out = []
    if set(result) != RESULT_KEYS:
        out.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        out.append(f"trace {int(trace)}: run not clean: {json.dumps(record['jobs'])[:2000]}")
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        out.append(f"trace {int(trace)}: metrics {got} differ from BENCHMARK.json {want}")
    if trace:
        counts = {k: result["metrics"][k]["value"] for k in run.EXACT_COUNTS}
        # order-64 table of int16, one search reaching index 4
        if counts["heisenberg.table_bytes"] != 64 * 64 * 2 or counts["group_core.search.index"] != 4:
            out.append(f"exact counts {counts}")
    return out


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    problems = golden_check_problems(run.load_golden())
    problems += result_problems(trace=False) + result_problems(trace=True)
    for p in problems:
        print(f"FAIL {p}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
