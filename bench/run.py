"""Benchmark of the abindex CLI: end-to-end jobs and a traced per-layer run.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: real CLI jobs
(``python -m abindex.cli ...`` with ``PYTHONPATH=src``), one at a time, each
in a fresh interpreter, so the ``lru_cache``d constructors and the caches on
table objects start cold in every job.  Jobs run back to back while one more
still fits in ``--seconds``; one discarded warm-up job (``gamma --n 4``)
runs first, before anything is timed, for the ``.pyc`` files and the page
cache.  Every job's exit code and JSON report are checked against the pinned
verdicts in ``bench/golden.json``; a job that deviates, or exits 2 or 3,
counts as failed.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, each the
median over the run's jobs: ``setup_s`` (a fresh interpreter that imports
``abindex.cli`` and exits, median of SETUP_PER_JOB samples taken beside each
job and at least SETUP_REPS in all), ``wall_s``, ``cpu_s`` (the
child's user + sys time) and ``peak_rss_mb`` (the child's own
``ru_maxrss``), both read from ``os.wait4`` on that child.

``--trace 1`` alternates an untraced job with a traced run of the same job
(``bench/traced.py``, which wraps each module's public functions in spans and
runs the real CLI) and reports the per-layer metrics: each layer's self time,
the exact counts, and how much of ``wall_s`` ``setup_s`` plus the traced
job's top-level spans explain.  Every metric is printed for every workload; a
layer the workload never enters reads 0 and is named as not entered on the
line above the result.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it record the
environment and the error rate; the run's jobs and spans are written to
``.bench_out/``.  Exit code 1, with no result line, when the warm-up job
does not match its pinned verdicts (for instance when ``src/`` is missing).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
SRC = ROOT / "src"

# CLI arguments of each workload; "{seed}" is replaced by --seed.  gamma and
# hat-gamma take no seed: their inputs are fixed, and so are all verdicts.
WORKLOADS = {
    "gamma-20": ["gamma", "--n", "20"],
    "hat-10": ["hat-gamma", "--n", "10"],
    "suite-all": ["verify", "--suite", "all", "--max-n", "8", "--seed", "{seed}"],
}
# the warm-up job and the self-check; it imports every module the others use
SMALL = "gamma-4"
SMALL_ARGS = ["gamma", "--n", "4"]

SETUP_PER_JOB = 2
SETUP_REPS = 11  # the fewest set-up samples a run takes, however few its jobs
CHILD_TIMEOUT_S = 120.0
EXACT_COUNTS = ("heisenberg.table_bytes", "group_core.search.nodes", "group_core.search.index")


class HarnessError(Exception):
    """The benchmark cannot produce a result (missing sources, broken warm-up)."""


@dataclass
class Child:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str]) -> Child:
    """Run ``python argv`` with the sources on the path; per-child rusage from wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    err_path = OUT / "child.stderr"
    with open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, out.decode(errors="replace"), stderr)


def cli_args(workload: str, seed: int) -> list[str]:
    args = SMALL_ARGS if workload == SMALL else WORKLOADS[workload]
    return [a.format(seed=seed) for a in args]


# ---------------------------------------------------------------------------
# pinned verdicts


def load_golden() -> dict:
    with open(BENCH / "golden.json", encoding="utf-8") as fh:
        return json.load(fh)


def report_problems(golden: dict, exit_code: int, stdout: str) -> list[str]:
    """Deviations of one job from its pinned exit code and claims."""
    problems = []
    if exit_code in (2, 3) or exit_code != golden["exit"]:
        problems.append(f"exit code {exit_code}, expected {golden['exit']}")
    try:
        claims = json.loads(stdout)["claims"]
    except (ValueError, KeyError, TypeError):
        return problems + ["stdout is not a JSON report with claims"]
    by_name = {c["name"]: c for c in claims}
    if len(by_name) != len(claims):
        problems.append("duplicate claim names")
    for name, want in golden["claims"].items():
        got = by_name.get(name)
        if got is None:
            problems.append(f"claim {name} missing")
            continue
        for key in ("expected", "computed", "pass"):
            if got.get(key) != want[key]:
                problems.append(f"claim {name}: {key} {got.get(key)!r}, pinned {want[key]!r}")
    for name, got in by_name.items():
        # claims added later may inform, but an unpinned verdict is a deviation
        if name not in golden["claims"] and got.get("pass") is not None:
            problems.append(f"unpinned claim {name} with pass {got.get('pass')!r}")
    return problems


def expected_red(golden: dict) -> list[str]:
    return [name for name, c in golden["claims"].items() if c["pass"] is False]


# ---------------------------------------------------------------------------
# measurement


def measure_setup(reps: int) -> list[float]:
    walls = []
    for _ in range(reps):
        child = run_child(["-c", "import abindex.cli"])
        if child.exit_code != 0:
            raise HarnessError(f"importing abindex.cli failed:\n{child.stderr[-2000:]}")
        walls.append(child.wall_s)
    return walls


def run_job(workload: str, seed: int, golden: dict) -> tuple[Child, list[str]]:
    child = run_child(["-m", "abindex.cli", *cli_args(workload, seed)])
    return child, report_problems(golden[workload], child.exit_code, child.stdout)


def warm_up(golden: dict) -> None:
    child, problems = run_job(SMALL, 0, golden)
    if problems:
        raise HarnessError("warm-up job deviates from its pinned verdicts: "
                           + "; ".join(problems) + "\n" + child.stderr[-2000:])


def run_traced(workload: str, seed: int, job: int, golden: dict) -> tuple[dict, list[str]]:
    """One traced job; its report is checked against the pins like any other job's."""
    child = run_child([str(BENCH / "traced.py"), str(job), *cli_args(workload, seed)])
    if child.exit_code != 0:
        return {}, [f"traced job crashed, exit code {child.exit_code}: {child.stderr[-2000:]}"]
    trace = json.loads(child.stdout)
    problems = report_problems(golden[workload], trace["exit"], trace["report"])
    return trace, [f"traced job: {p}" for p in problems]


def layer_values(trace: dict) -> tuple[dict, float]:
    """Self time per span name, plus the summed duration of the top-level spans."""
    child_time: dict[int, float] = {}
    for s in trace["spans"]:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    self_s: dict[str, float] = {}
    top = 0.0
    for s in trace["spans"]:
        dur = s["end"] - s["start"]
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + dur - child_time.get(s["id"], 0.0)
        if s["parent"] is None:
            top += dur
    return self_s, top


def layer_metrics(spec: list[dict], trace: dict, setup_s: float, wall_s: float) -> dict:
    """One traced job's per-layer metrics; a layer the job never entered reads 0.

    ``wall_s`` is the untraced job's, so coverage can pass 1 (and the
    overhead drop below 0) when the traced job runs faster than its twin.
    """
    self_s, top = layer_values(trace)
    out = {}
    for m in spec:
        name = m["name"]
        if name == "trace.coverage":
            value = (setup_s + top) / wall_s
        elif name == "trace.overhead_s":
            value = wall_s - setup_s - top
        elif name in trace["counts"]:
            value = trace["counts"][name]
        else:
            value = self_s.get(name.removesuffix("_s"), 0.0)
        out[name] = value
    return out


def not_entered(spec: list[dict], entered: set[str]) -> list[str]:
    """The time metrics of layers no traced job of the run entered."""
    return [m["name"] for m in spec if m["unit"] == "s" and not m["name"].startswith("trace.")
            and m["name"].removesuffix("_s") not in entered]


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            proc = None
        if proc is not None and proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit}


def median_metrics(samples: list[dict], spec: list[dict]) -> dict:
    out = {}
    for m in spec:
        values = [s[m["name"]] for s in samples]
        # counts stay whole numbers: an even sample count takes the lower middle
        pick = statistics.median_low if all(isinstance(v, int) for v in values) else statistics.median
        out[m["name"]] = {"value": pick(values), "unit": m["unit"]}
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One measured run; returns the result line and the record for ``.bench_out``."""
    if not (SRC / "abindex" / "cli.py").is_file():
        raise HarnessError(f"no abindex sources under {SRC}")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]
    golden = load_golden()
    warm_up(golden)
    jobs, setup_walls = [], []
    start = time.perf_counter()
    last = 0.0
    # another job starts only if it would end within the window, were it as long as the last
    while not jobs or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        # set-up is sampled beside every job, so it sees the same host as the jobs do
        setup_walls += measure_setup(SETUP_PER_JOB)
        child, problems = run_job(workload, seed, golden)
        job = {"job": len(jobs), "exit": child.exit_code, "wall_s": child.wall_s,
               "cpu_s": child.cpu_s, "peak_rss_mb": child.peak_rss_mb, "problems": problems}
        if trace:
            traced, job["traced_problems"] = run_traced(workload, seed, job["job"], golden)
            job["spans"] = traced.get("spans", [])
            job["counts"] = traced.get("counts", {})
        jobs.append(job)
        last = time.perf_counter() - t0
    setup_walls += measure_setup(SETUP_REPS - len(setup_walls))
    setup_s = statistics.median(setup_walls)
    if trace:
        samples = [layer_metrics(spec, j, setup_s, j["wall_s"])
                   for j in jobs if not j["traced_problems"]]
    else:
        samples = [{"setup_s": setup_s, **j} for j in jobs]
    attempts = [j["problems"] for j in jobs] + [j["traced_problems"] for j in jobs if trace]
    failed = sum(1 for p in attempts if p)
    # the exact counts must repeat exactly between traced jobs
    repeat = all(len({s[name] for s in samples}) == 1 for name in EXACT_COUNTS) if trace else True
    result = {"correct": failed == 0 and repeat and bool(samples), "attempted": len(attempts),
              "failed": failed, "metrics": median_metrics(samples, spec) if samples else {}}
    entered = {s["name"] for j in jobs for s in j.get("spans", [])}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "setup_walls_s": setup_walls, "expected_red": expected_red(golden[workload]),
              "not_entered": not_entered(spec, entered) if trace else [],
              "environment": environment(), "jobs": jobs, "result": result}
    return result, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    n_jobs = len(record["jobs"])
    print(f"# environment {json.dumps(record['environment'])}")
    print(f"# {args.workload} seed {args.seed}: {n_jobs} jobs, {result['failed']} of "
          f"{result['attempted']} attempts failed (error_rate "
          f"{result['failed'] / result['attempted']:.3f}); expected-red claims, "
          f"pinned as failing: {record['expected_red'] or 'none'}")
    print(f"# timings are medians over {n_jobs} jobs; with fewer than 20 jobs no tail "
          f"percentile has 10 samples beyond it, so none is reported")
    for job in record["jobs"]:
        for problem in job["problems"] + job.get("traced_problems", []):
            print(f"# job {job['job']}: {problem}")
    if args.trace:
        print(f"# layers not entered by this workload, reported as 0: "
              f"{', '.join(record['not_entered']) or 'none'}")
    print(f"# record written to {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
