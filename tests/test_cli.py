"""End-to-end tests of the command-line interface (fresh process per run)."""

import importlib.util
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from abindex import cli
from abindex import group_core as gc
from abindex import heisenberg as hb
from abindex import qpairing as qp
from abindex.cli import main
from helpers import table_from_json

CLAIM_KEYS = {"name", "law", "expected", "computed", "source", "pass"}


def run_cli(*args, timeout=600):
    proc = subprocess.run(
        [sys.executable, "-m", "abindex.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc


def claims_by_name(doc):
    return {c["name"]: c for c in doc["claims"]}


def strict_json(text):
    """A JSON document, refusing NaN and Infinity, which RFC 8259 does not allow."""
    def refuse(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=refuse)


GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden.json"


@pytest.mark.parametrize("job,args", [
    ("gamma-4", ["gamma", "--n", "4"]),
    ("gamma-20", ["gamma", "--n", "20"]),
    ("hat-10", ["hat-gamma", "--n", "10"]),
    ("suite-all", ["verify", "--suite", "all", "--max-n", "8"]),
])
def test_reports_match_the_pinned_verdicts(job, args):
    """The jobs whose verdicts ``bench/golden.json`` pins: the exit code, and
    each pinned claim's expected, computed and pass; an unpinned claim may
    only inform.  Every verdict is a JSON true, false or null, never a string."""
    pinned = json.loads(GOLDEN.read_text())[job]
    proc = run_cli(*args)
    assert proc.returncode == pinned["exit"], proc.stderr[-2000:]
    claims = strict_json(proc.stdout)["claims"]
    assert {type(c["pass"]) for c in claims} <= {bool, type(None)}
    by_name = claims_by_name({"claims": claims})
    assert len(by_name) == len(claims)
    for name, want in pinned["claims"].items():
        assert {key: by_name[name][key] for key in want} == want, name
    assert all(c["pass"] is None for name, c in by_name.items() if name not in pinned["claims"])


def test_gamma_command_passes():
    proc = run_cli("gamma", "--n", "4")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    claims = claims_by_name(doc)
    assert claims["order"]["computed"] == 64
    assert claims["min-abelian-index"]["computed"] == 4
    assert all(c["pass"] in (True, None) for c in doc["claims"])
    assert "PASS" in proc.stderr


def test_gamma_n2_and_n3():
    for n, order, idx in ((2, 8, 2), (3, 27, 3)):
        doc = json.loads(run_cli("gamma", "--n", str(n)).stdout)
        claims = claims_by_name(doc)
        assert claims["order"]["computed"] == order
        assert claims["min-abelian-index"]["computed"] == idx


def test_hat_gamma_small_n_is_informational():
    proc = run_cli("hat-gamma", "--n", "2")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    claims = claims_by_name(doc)
    assert claims["order"]["computed"] == 96
    assert claims["theta-kernel-order"]["computed"] == 16
    assert claims["min-abelian-index"]["pass"] is None


def test_theta_onto_needs_a_homomorphism(monkeypatch, capsys):
    # swapping the images 1 and 2 keeps the projection onto C6 but breaks the morphism
    real = hb.hat_gamma_n

    def swapped(*args, **kwargs):
        hat = real(*args, **kwargs)
        hat.theta.map = np.array([0, 2, 1, 3, 4, 5])[hat.theta.map]
        return hat

    monkeypatch.setattr(hb, "hat_gamma_n", swapped)
    assert main(["hat-gamma", "--n", "2"]) == 1
    claim = claims_by_name(json.loads(capsys.readouterr().out))["theta-onto"]
    assert (claim["expected"], claim["computed"], claim["pass"]) == (True, False, False)


def test_bound_command_table():
    doc = json.loads(run_cli("bound", "--alpha", "1", "--beta", "1").stdout)
    claims = claims_by_name(doc)
    assert claims["lambda"]["computed"] == 1
    assert claims["jordan-bound"]["computed"] == 144
    assert claims["admissible-degrees"]["computed"] == [0]

    doc = json.loads(
        run_cli("bound", "--alpha", "5", "--beta", "1", "--p", "5").stdout
    )
    claims = claims_by_name(doc)
    assert claims["lambda"]["computed"] == 8
    assert claims["p-admissible"]["computed"] is False

    doc = json.loads(
        run_cli("bound", "--alpha", "13", "--beta", "1", "--p", "5").stdout
    )
    claims = claims_by_name(doc)
    assert claims["lambda"]["computed"] == 24
    assert claims["p-admissible"]["computed"] is True


def test_bound_lists_a_degree_window_up_to_its_cap():
    """lambda = 2^20 - 2 gives a window of 2^20 - 1 degrees, listed; lambda =
    2^20 gives 2^20 + 1, refused with one error document before any list is
    built, as is the 2 * 10^6 + 1 of alpha = 10^6."""
    proc = run_cli("bound", "--alpha", str(1 << 19), "--beta", "1", "--p", "5")
    assert proc.returncode == 0, proc.stderr[-2000:]
    claims = claims_by_name(json.loads(proc.stdout))
    assert claims["lambda"]["computed"] == (1 << 20) - 2
    assert claims["admissible-degrees"]["computed"] == list(range(2 - (1 << 20), 1 << 20, 2))
    assert claims["p-admissible"]["pass"] is True
    for alpha in (str((1 << 19) + 1), "1000000"):
        proc = run_cli("bound", "--alpha", alpha, "--beta", "1", timeout=60)
        assert proc.returncode == 3, alpha
        assert set(json.loads(proc.stdout)) == {"command", "error"}
        assert "Traceback" not in proc.stderr


def test_bound_refuses_a_prime_too_large_to_test():
    """2^61 - 1 is prime, but trial division to its square root would not
    end: it is refused at 2^40 before the test.  A prime below runs."""
    proc = run_cli("bound", "--alpha", "5", "--beta", "1", "--p", str((1 << 61) - 1), timeout=20)
    assert proc.returncode == 3
    assert set(json.loads(proc.stdout)) == {"command", "error"}
    proc = run_cli("bound", "--alpha", "5", "--beta", "1", "--p", "1000000007", timeout=20)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert claims_by_name(json.loads(proc.stdout))["p-admissible"]["computed"] is False


def test_bound_rejects_zero_area():
    proc = run_cli("bound", "--alpha", "0", "--beta", "1")
    assert proc.returncode == 2


def test_bound_takes_no_cap_or_budget():
    for flag, value in (("--cap", "5"), ("--budget-s", "1")):
        proc = run_cli("bound", "--alpha", "5", "--beta", "1", flag, value)
        assert proc.returncode == 2, flag
        assert "unrecognized arguments" in proc.stderr
    # no command takes an order cap: the memory guards are the one size limit
    for args in (("gamma", "--n", "4"), ("hat-gamma", "--n", "2"), ("verify", "--suite", "sl2")):
        proc = run_cli(*args, "--cap", "100000")
        assert proc.returncode == 2, args
        assert "unrecognized arguments: --cap 100000" in proc.stderr


def test_bad_input_is_a_usage_error():
    for args in (
        ("gamma", "--n", "1"),
        ("bound", "--alpha", "abc", "--beta", "1"),
        ("bound", "--alpha", "5", "--beta", "1", "--p", "4"),
        ("verify", "--suite", "sl2", "--seed", "-1"),
        ("gamma", "--n", "2", "--dump-group", "/nonexistent/x.json"),
        ("gamma", "--n", "4", "--budget-s", "nan"),
        ("gamma", "--n", "4", "--budget-s", "-1"),
        ("verify", "--suite", "sl2", "--budget-s", "inf"),
        ("gamma", "--n", "4", "--budget-s", "1e400"),
        ("gamma", "--n", "0"),
        ("hat-gamma", "--n", "0"),
        ("verify", "--suite", "tor", "--max-n", "0"),
        ("hat-gamma", "--n", "3"),  # odd modulus
        ("bound", "--alpha", "5", "--beta", "1", "--p", "3"),  # prime too small
    ):
        proc = run_cli(*args)
        assert proc.returncode == 2, args
        assert set(json.loads(proc.stdout)) == {"command", "error"}
        assert "Traceback" not in proc.stderr


def test_report_round_trip():
    doc = json.loads(run_cli("bound", "--alpha", "4", "--beta", "1").stdout)
    assert set(doc) == {"command", "inputs", "claims", "runtime_ms"}
    assert doc["claims"] and all(set(c) == CLAIM_KEYS for c in doc["claims"])


def test_search_report_round_trip():
    # the search runs on G/Z(G): its order times the center's is the group order
    tables = {"gamma": lambda: hb.gamma_n(4), "hat-gamma": lambda: hb.hat_gamma_n(2).table}
    for args in (("gamma", "--n", "4"), ("hat-gamma", "--n", "2")):
        doc = json.loads(run_cli(*args).stdout)
        search = doc["search"]
        assert set(search) == {"quotient_order", "nodes_explored", "root_classes",
                               "centralizers", "runtime_s"}
        assert search["nodes_explored"] >= 1 and search["root_classes"] >= 1
        assert isinstance(search["runtime_s"], float) and search["runtime_s"] >= 0
        g = tables[args[0]]()
        center = gc.center(g).size
        claims = {c["name"]: c["computed"] for c in doc["claims"]}
        assert search["quotient_order"] * center == g.order == claims["order"]
        assert claims.get("center-order", center) == center
        assert set(doc) == {"command", "inputs", "claims", "search", "runtime_ms"}
        assert all(set(c) == CLAIM_KEYS for c in doc["claims"])


def _claim(name, law, expected, computed, source, verdict):
    return {"name": name, "law": law, "expected": expected, "computed": computed,
            "source": source, "pass": verdict}


WHOLE_DOCUMENTS = [
    (("gamma", "--n", "4"), 0, json.dumps({
        "command": "gamma", "inputs": {"n": 4},
        "claims": [
            _claim("order", "the mod-n group has n^3 elements", 64, 64, "closed-form", True),
            _claim("center-order", "the center has n elements", 4, 4, "closed-form", True),
            _claim("commutator-equals-center", "commutator subgroup and center coincide",
                   True, True, "enumeration", True),
            _claim("min-abelian-index", "minimal abelian-subgroup index equals n",
                   4, 4, "enumeration", True)],
        "search": {"quotient_order": 16, "nodes_explored": 5, "root_classes": 9,
                   "centralizers": 4, "runtime_s": 0},
        "runtime_ms": 0}, indent=2),
     "[PASS] order: the mod-n group has n^3 elements (expected 64, computed 64)\n"
     "[PASS] center-order: the center has n elements (expected 4, computed 4)\n"
     "[PASS] commutator-equals-center: commutator subgroup and center coincide "
     "(expected True, computed True)\n"
     "[PASS] min-abelian-index: minimal abelian-subgroup index equals n "
     "(expected 4, computed 4)\n"
     "-- 4 passed, 0 failed, 0 informational --\n"),
    (("bound", "--alpha", "5", "--beta", "1", "--p", "5"), 0, json.dumps({
        "command": "bound", "inputs": {"alpha": "5", "beta": "1", "p": 5},
        "claims": [
            _claim("lambda", "largest even integer strictly below |2 alpha / beta|, else 1",
                   None, 8, "closed-form", None),
            _claim("jordan-bound", "uniform abelian-index bound max(144, 6 lambda)",
                   None, 144, "closed-form", None),
            _claim("admissible-degrees", "even degrees strictly inside the ratio window",
                   None, list(range(-8, 9, 2)), "closed-form", None),
            _claim("p-admissible",
                   "a nonabelian p-group occurs exactly when 2p fits the degree window",
                   False, False, "closed-form", True)],
        "runtime_ms": 0}, indent=2),
     "[INFO] lambda: largest even integer strictly below |2 alpha / beta|, else 1 "
     "(expected None, computed 8)\n"
     "[INFO] jordan-bound: uniform abelian-index bound max(144, 6 lambda) "
     "(expected None, computed 144)\n"
     "[INFO] admissible-degrees: even degrees strictly inside the ratio window "
     "(expected None, computed [-8, -6, -4, -2, 0, 2, 4, 6, 8])\n"
     "[PASS] p-admissible: a nonabelian p-group occurs exactly when 2p fits the degree "
     "window (expected False, computed False)\n"
     "-- 1 passed, 0 failed, 3 informational --\n"),
    (("hat-gamma", "--n", "3"), 2,
     json.dumps({"command": "hat-gamma", "error": "the extended group needs an even modulus >= 2"}),
     "error: the extended group needs an even modulus >= 2\n"),
]


@pytest.mark.parametrize("args,code,stdout,stderr", WHOLE_DOCUMENTS,
                         ids=[" ".join(a) for a, *_ in WHOLE_DOCUMENTS])
def test_the_whole_document_is_pinned(args, code, stdout, stderr):
    """Key order, every string and the stderr summary, not only the verdicts;
    the runtime fields are zeroed before the comparison."""
    proc = run_cli(*args)
    strict_json(proc.stdout)
    masked = re.sub(r'"(runtime_ms|runtime_s)": [0-9.e-]+', r'"\1": 0', proc.stdout)
    assert (proc.returncode, masked, proc.stderr) == (code, stdout + "\n", stderr)


def test_verify_sl2_suite():
    proc = run_cli("verify", "--suite", "sl2")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert all(c["pass"] for c in doc["claims"])


def test_verify_sl2_deterministic_given_seed():
    a = json.loads(run_cli("verify", "--suite", "sl2", "--seed", "7").stdout)
    b = json.loads(run_cli("verify", "--suite", "sl2", "--seed", "7").stdout)
    a.pop("runtime_ms"), b.pop("runtime_ms")
    assert a == b


def test_verify_sl2_claims_do_not_depend_on_the_seed():
    # every sl2 claim is exact on a fixed grid: --seed is accepted and echoed, never read
    a, b = (json.loads(run_cli("verify", "--suite", "sl2", "--seed", s).stdout)
            for s in ("0", "7"))
    assert (a["inputs"]["seed"], b["inputs"]["seed"]) == (0, 7)
    assert a["claims"] == b["claims"] and all(c["pass"] for c in a["claims"])


def test_lift_homomorphism_fails_when_the_xy_coefficient_is_shifted(monkeypatch):
    # the grid must catch a lift whose correction is off by xy
    coeffs = hb.q_form_coeffs

    def shifted(F):
        xx, xy, yy = coeffs(F)
        return xx, xy + 1, yy

    monkeypatch.setattr(hb, "q_form_coeffs", shifted)
    rep = cli.VerificationReport("verify", {})
    cli._suite_sl2(rep)
    claim = claims_by_name(rep)["lift-homomorphism"]
    assert claim["pass"] is False and claim["computed"] > 0


def test_verify_doubling_suite():
    proc = run_cli("verify", "--suite", "doubling")
    assert proc.returncode == 0


def test_verify_q_suite_small():
    proc = run_cli("verify", "--suite", "q", "--max-n", "4")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert any(c["name"].startswith("q-biadditive") for c in doc["claims"])


def test_the_q_suite_builds_each_quotient_once(monkeypatch, capsys):
    # the search runs on the pairing's own projection onto G/Z(G); it builds no second copy
    induced = []
    init = gc.GroupTable.__init__

    def recording(self, mul, *args, **kwargs):
        if isinstance(mul, gc.InducedMul):
            induced.append((mul.g, mul._left.copy()))
        init(self, mul, *args, **kwargs)

    monkeypatch.setattr(gc.GroupTable, "__init__", recording)
    assert main(["verify", "--suite", "q", "--max-n", "8"]) == 0
    capsys.readouterr()
    assert induced
    for i, (g, lifts) in enumerate(induced):
        for h, other in induced[:i]:
            assert not (g is h and np.array_equal(lifts, other)), g.name


def test_verify_esfera_suite():
    proc = run_cli("verify", "--suite", "esfera")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    claims = claims_by_name(doc)
    assert claims["sigma-tetra"]["computed"] == 3
    assert claims["sigma-octa"]["computed"] == 3
    assert claims["sigma-icosa"]["computed"] <= 12


def test_verify_tor_suite_reports_documented_mismatch():
    # the two documented fixed-point formulas for the squared twist miss a
    # third fixed point whenever 3 | n; the suite reports that honestly
    proc = run_cli("verify", "--suite", "tor", "--max-n", "6")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    failing = [c["name"] for c in doc["claims"] if c["pass"] is False]
    assert failing == [
        "fixed-points-n6-k2",
        "fixed-points-n9-k2",
        "fixed-points-n12-k2",
    ]


def test_verdict_is_equality_except_for_bounds():
    # informational claims carry no verdict; every other claim passes exactly
    # when computed equals expected, except the three bound claims
    bounds = {"gamma-image-index", "min-abelian-index-floor", "sigma-icosa"}
    checked = set()
    for args in (("gamma", "--n", "4"), ("hat-gamma", "--n", "8"),
                 ("bound", "--alpha", "5", "--beta", "1", "--p", "5"),
                 ("verify", "--suite", "all")):
        for c in json.loads(run_cli(*args).stdout)["claims"]:
            if c["expected"] is None:
                assert c["pass"] is None, c
            elif c["name"] not in bounds:
                assert c["pass"] is (c["computed"] == c["expected"]), c
                checked.add(c["name"])
    # the tor suite's documented failures are among the equality claims
    assert {"fixed-points-n6-k2", "fixed-points-n9-k2", "fixed-points-n12-k2"} <= checked


def test_usage_error_exit_code():
    proc = run_cli("verify", "--suite", "nonsense")
    assert proc.returncode == 2
    proc = run_cli("gamma")
    assert proc.returncode == 2


def test_cap_exit_code():
    # their word tables are over the memory guard, and they are refused before
    # their digit arrays are built (for gamma --n 1000 those alone would take 7.45 GiB)
    for args in (("gamma", "--n", "1000"), ("hat-gamma", "--n", "200"),
                 ("hat-gamma", "--n", "100")):
        proc = run_cli(*args, timeout=60)
        assert proc.returncode == 3, args
        assert "error" in json.loads(proc.stdout)
        assert "Traceback" not in proc.stderr


def test_hat_gamma_12_runs_with_default_flags():
    # order 20,736: no flag is needed to build what the memory guards let through
    proc = run_cli("hat-gamma", "--n", "12")
    assert proc.returncode == 0, proc.stderr[-2000:]
    claims = claims_by_name(json.loads(proc.stdout))
    assert claims["order"]["computed"] == 20_736
    assert claims["min-abelian-index-floor"]["pass"] is True


def test_hat_gamma_14_reaches_the_floor():
    # order 32,928: its dense int32 table would take 4.3 GB, its word table 9.2 MB
    proc = run_cli("hat-gamma", "--n", "14")
    assert proc.returncode == 0
    claims = claims_by_name(json.loads(proc.stdout))
    assert claims["order"]["computed"] == 32_928
    assert claims["min-abelian-index-floor"]["computed"] == 84
    assert claims["min-abelian-index-floor"]["pass"] is True


def test_dump_group_path_is_checked_before_the_build(monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("the group was built before the path was checked")

    monkeypatch.setattr(hb, "gamma_n", unreachable)
    assert main(["gamma", "--n", "2", "--dump-group", "/nonexistent/x.json"]) == 2
    assert set(json.loads(capsys.readouterr().out)) == {"command", "error"}


def test_running_out_of_memory_exits_3(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(hb, "hat_gamma_n", exhausted)
    assert main(["hat-gamma", "--n", "4"]) == 3
    out = capsys.readouterr().out
    assert json.loads(out) == {"command": "hat-gamma", "error": "out of memory"}
    assert out.count("\n") == 1  # one JSON document


def test_a_word_table_over_the_address_space_limit_is_refused_at_the_guard():
    # hat-gamma at n = 44, 46 and 48 needs 1,121,362,176, 1,318,708,128 and
    # 1,540,767,744 bytes for its word table's build and the largest pass after
    # it (``_word_build_bytes``): in a 1 GB address space, of which the
    # interpreter and numpy already map about 107 MB, each stops at the guard,
    # not in a MemoryError mid-build (n = 40 needs 793,344,000 and runs)
    limit, hard = 1_000_000 * 1024, resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY and hard < limit:
        pytest.skip("the hard address-space limit is below 1 GB")
    for n, order in ((44, 1_022_208), (46, 1_168_032), (48, 1_327_104)):
        proc = subprocess.run(
            [sys.executable, "-m", "abindex.cli", "hat-gamma", "--n", str(n)],
            capture_output=True, text=True, timeout=600,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, hard)))
        assert proc.returncode == 3, proc.stderr
        doc = json.loads(proc.stdout)
        assert set(doc) == {"command", "error"} and doc["command"] == "hat-gamma"
        assert re.fullmatch(
            f"a word table of order {order} would exceed the address-space limit "
            rf"\(RLIMIT_AS\) of {limit} bytes, less \d+ bytes already mapped",
            doc["error"]), doc


def test_the_cli_runs_one_blas_thread():
    # no path calls BLAS, so the CLI starts no OpenBLAS worker per CPU; a
    # caller's own OPENBLAS_NUM_THREADS is kept
    if not Path("/proc/self/task").is_dir():
        pytest.skip("no /proc/self/task to count threads in")
    code = ("import os, abindex.cli; "
            "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}

    def threads_and_setting():
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    assert threads_and_setting() == ["1", "1"]
    env["OPENBLAS_NUM_THREADS"] = "2"
    assert threads_and_setting()[1] == "2"


def test_the_q_suite_refuses_pairing_arrays_that_do_not_fit(monkeypatch, capsys):
    # at 91 bytes per |B|^2 entry the pairing arrays take 910,000 bytes at n = 10
    # (|B| = 100) and 1,332,331 at n = 11, so under a 1,000,000-byte bound the suite
    # stops at n = 11 before its pairing table is built
    built = []
    q_table = qp.q_table
    monkeypatch.setattr(gc, "_table_bytes_bound", lambda: (1_000_000, "1000000 bytes"))
    monkeypatch.setattr(qp, "q_table", lambda data: built.append(data.gammaB.order) or q_table(data))
    assert main(["verify", "--suite", "q", "--max-n", "40"]) == 3
    out = capsys.readouterr().out
    assert json.loads(out) == {"command": "verify", "error": "the pairing arrays of a "
                               "quotient of order 121 would exceed 1000000 bytes"}
    assert out.count("\n") == 1  # one JSON document
    assert max(built) == 100


def test_budget_exit_code():
    proc = run_cli("hat-gamma", "--n", "8", "--budget-s", "0.000001")
    assert proc.returncode == 3
    doc = json.loads(proc.stdout)
    assert "error" in doc
    # the incumbent is the order of an abelian subgroup found before the stop,
    # at least the center (order 16), which the root records first
    best = doc["best_order_found"]
    assert isinstance(best, int) and best >= 16 and 6144 % best == 0


def test_dump_group_round_trip(tmp_path):
    path = tmp_path / "gamma3.json"
    proc = run_cli("gamma", "--n", "3", "--dump-group", str(path))
    assert proc.returncode == 0
    doc = json.loads(path.read_text())
    assert doc["order"] == 27
    assert doc["labels"][0] == "A(0,0,0)"
    assert table_from_json(doc).order == 27


def test_dump_group_refuses_a_table_too_large_to_write(tmp_path, monkeypatch, capsys):
    # the word table of order 32,928 fits, but its dense int32 table (4.3 GB) does not
    path = tmp_path / "hat14.json"
    proc = run_cli("hat-gamma", "--n", "14", "--dump-group", str(path))
    assert proc.returncode == 3
    assert "would exceed" in json.loads(proc.stdout)["error"]
    assert "Traceback" not in proc.stderr
    assert not path.exists()

    # the size is refused from n, before the group is built
    def unreachable(*args, **kwargs):
        raise AssertionError("the group was built before its size was checked")

    monkeypatch.setattr(hb, "gamma_n", unreachable)
    monkeypatch.setattr(hb, "hat_gamma_n", unreachable)
    for command, n in (("gamma", "33"), ("hat-gamma", "14"), ("gamma", "100")):
        assert main([command, "--n", n, "--dump-group", str(path)]) == 3
        assert "would exceed" in json.loads(capsys.readouterr().out)["error"]
    assert not path.exists()


def test_gamma_and_hat_gamma_load_only_the_modules_they_use():
    # numpy 1.x imports numpy.ma with numpy itself; only what the jobs load counts
    code = """
import contextlib
import io
import sys
import numpy
before = set(sys.modules)
import abindex
loaded = [m for m in sys.modules if m.startswith("abindex.")]
assert not loaded, loaded
from abindex import cli
for args in (["gamma", "--n", "6"], ["hat-gamma", "--n", "2"]):
    assert cli.main(args) == 0
print(sorted({"numpy.ma", "abindex.qpairing", "abindex.surface_groups",
              "abindex.jordan_bounds"} & set(sys.modules) - before))
from abindex import qpairing
print(qpairing.__name__)
# the whole suite exits 1 on the tor suite's three documented failures; it
# draws nothing at random, so it loads neither numpy.random nor the OpenSSL
# hashing that numpy.random loads through secrets
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--suite", "all"]) == 1
print(sorted({"numpy.ma", "numpy.random", "secrets"} & set(sys.modules) - before))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-3:] == ["[]", "abindex.qpairing", "[]"]


def test_every_traced_span_names_a_live_attribute():
    # bench/traced.py wraps each SPANS entry with getattr(owner, attr); a
    # deleted or renamed name would break the traced bench run
    path = Path(__file__).resolve().parents[1] / "bench" / "traced.py"
    spec = importlib.util.spec_from_file_location("traced", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    assert traced.SPANS
    for owner, attr, *_ in traced.SPANS:
        assert callable(getattr(owner, attr, None)), (owner, attr)
