"""Command-line surface: reproducible verification runs, JSON reports.

Each command writes one JSON document to stdout and a human-readable claim
summary to stderr.  Exit codes: 0 all claims pass, 1 some claim fails,
2 usage error, 3 a size guard, time budget or memory exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

# Every product here is an integer gather and the few matrix calls work on
# int64 data, so no path calls BLAS: one OpenBLAS thread, not an idle pool of
# one worker per CPU, unless the caller chose otherwise.  Set before numpy is
# first imported, which the package __init__ does not do.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import group_core as gc
from . import heisenberg as hb
from .errors import CapExceeded, InvalidInput, SearchTimeout


class VerificationReport(dict):
    """The JSON document a command writes: its inputs and its claims, each
    passing (True), failing (False) or informational (None); a search
    command also sets ``search``."""

    def __init__(self, command: str, inputs: dict):
        super().__init__(command=command, inputs=inputs, claims=[])

    def add(self, name, law, expected, computed, source, passed) -> None:
        """A claim with its verdict given; only bounds ("<= 12") need this."""
        self["claims"].append({"name": name, "law": law, "expected": expected,
                               "computed": computed, "source": source, "pass": passed})

    def check(self, name, law, expected, computed, source) -> None:
        """A claim that passes exactly when the computed value equals the expected one."""
        self.add(name, law, expected, computed, source, bool(computed == expected))

    def info(self, name, law, computed, source) -> None:
        """An informational claim: nothing is expected, so it neither passes nor fails."""
        self.add(name, law, None, computed, source, None)


def _emit(report: VerificationReport, t0: float) -> int:
    report["runtime_ms"] = int((time.monotonic() - t0) * 1000)
    json.dump(report, sys.stdout, indent=2, default=str, allow_nan=False)
    sys.stdout.write("\n")
    for c in report["claims"]:
        tag = "INFO" if c["pass"] is None else ("PASS" if c["pass"] else "FAIL")
        print(f"[{tag}] {c['name']}: {c['law']} (expected {c['expected']}, "
              f"computed {c['computed']})", file=sys.stderr)
    verdicts = [c["pass"] for c in report["claims"]]
    n_pass, n_fail = verdicts.count(True), verdicts.count(False)
    print(f"-- {n_pass} passed, {n_fail} failed, "
          f"{len(verdicts) - n_pass - n_fail} informational --", file=sys.stderr)
    return 1 if n_fail else 0


# ---------------------------------------------------------------------------
# commands


def cmd_gamma(args) -> int:
    t0 = time.monotonic()
    n = args.n
    rep = VerificationReport("gamma", {"n": n})
    _check_dump_target(args.dump_group, n**3)
    g = hb.gamma_n(n)
    center = gc.center(g)
    comm = gc.commutator_subgroup(g)
    res = gc.min_abelian_index(gc.quotient_by_normal(g, center)[1], budget_s=args.budget_s)
    rep.check("order", "the mod-n group has n^3 elements", n**3, g.order, "closed-form")
    rep.check("center-order", "the center has n elements", n, center.size, "closed-form")
    rep.check("commutator-equals-center", "commutator subgroup and center coincide",
              True, comm == center, "enumeration")
    rep.check("min-abelian-index", "minimal abelian-subgroup index equals n",
              n, res.index, "enumeration")
    rep["search"] = _search_stats(res)
    _dump_group(args.dump_group, g)
    return _emit(rep, t0)


def cmd_hat_gamma(args) -> int:
    t0 = time.monotonic()
    n = args.n
    rep = VerificationReport("hat-gamma", {"n": n})
    _check_dump_target(args.dump_group, 12 * n**3)
    hat = hb.hat_gamma_n(n)
    res = gc.min_abelian_index(gc.quotient_by_normal(hat.table, gc.center(hat.table))[1],
                               budget_s=args.budget_s)
    rep.info("order", "computed order of the twisted closure", hat.table.order, "enumeration")
    rep.check("theta-onto", "projection onto the order-6 quotient is a surjective homomorphism",
              True, hat.theta.verify() and hat.theta.is_surjective(), "enumeration")
    rep.info("theta-kernel-order", "computed kernel order of the order-6 projection",
             hat.theta_kernel.size, "enumeration")
    image_index = hat.table.order // hat.gamma_image.size
    rep.add("gamma-image-index", "index of the translation image divides 12",
            "divisor of 12", image_index, "enumeration", 12 % image_index == 0)
    rep.info("gamma-image-normal", "whether the translation image is normal",
             gc.is_normal(hat.table, hat.gamma_image), "enumeration")
    floor = 6 * n
    if n >= 8:
        rep.add("min-abelian-index-floor",
                "every abelian subgroup has index at least 6n",
                f">= {floor}", res.index, "enumeration", res.index >= floor)
    else:
        rep.info("min-abelian-index",
                 "computed minimal abelian index (floor asserted only for n >= 8)",
                 res.index, "enumeration")
    rep["search"] = _search_stats(res)
    _dump_group(args.dump_group, hat.table)
    return _emit(rep, t0)


def _search_stats(res: gc.AbelianIndexResult) -> dict:
    return {"quotient_order": res.quotient_order, "nodes_explored": res.nodes_explored,
            "root_classes": res.root_classes, "centralizers": res.centralizers,
            "runtime_s": round(res.runtime_s, 4)}


def _check_dump_target(path: Optional[str], order: int) -> None:
    """Reject an unwritable --dump-group path, or a table of this order too
    large to write, before any group is built."""
    if not path:
        return
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise InvalidInput(f"cannot write {path}: not a file in a writable directory")
    gc.check_table_order(order)


def _dump_group(path: Optional[str], table: gc.GroupTable) -> None:
    if not path:
        return
    doc = gc.table_to_json(table)  # refuses an oversized table before the file is opened
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc.strerror}") from exc


def cmd_bound(args) -> int:
    from . import jordan_bounds as jb
    t0 = time.monotonic()
    alpha = jb.parse_rational(args.alpha)
    beta = jb.parse_rational(args.beta)
    s = jb.shape(alpha, beta)
    rep = VerificationReport("bound", {"alpha": str(alpha), "beta": str(beta),
                                       "p": args.p})
    lam = jb.lambda_of(s)
    rep.info("lambda", "largest even integer strictly below |2 alpha / beta|, else 1",
             lam, "closed-form")
    rep.info("jordan-bound", "uniform abelian-index bound max(144, 6 lambda)",
             jb.jordan_bound(s), "closed-form")
    degrees = jb.admissible_fixed_surface_degrees(s)
    rep.info("admissible-degrees", "even degrees strictly inside the ratio window",
             degrees, "closed-form")
    if args.p is not None:
        adm = jb.nonabelian_p_admissible(s, args.p)
        # cross-check against the independently computed degree window
        in_window = 2 * args.p in degrees
        rep.check("p-admissible",
                  "a nonabelian p-group occurs exactly when 2p fits the degree window",
                  in_window, adm.admissible, "closed-form")
        if adm.admissible:
            rep.info("p-witness", "witness group and its presentation",
                     f"{adm.witness_group}: {adm.witness_presentation}", "closed-form")
    return _emit(rep, t0)


# ---------------------------------------------------------------------------
# verification suites


def _suite_q(rep: VerificationReport, max_n: int, budget_s: float) -> None:
    from . import qpairing as qp
    mixed = None  # the n = 6 pairing of a 2-element with a 3-element, reported last
    for n in range(2, max_n + 1):
        data = qp.gamma_central_data(n)
        for prop in qp.verify_q_properties(data):
            rep.check(f"q-{prop.name}-n{n}", prop.law, "pass",
                      "pass" if prop.passed else f"fail at {prop.counterexample}",
                      "enumeration")
        if data.g.order <= 1000:
            rep.check(f"q-lift-independent-n{n}",
                      "pairing value does not depend on the chosen lifts",
                      True, qp.verify_lift_independence(data), "enumeration")
        dc = qp.check_dc_bound(data)
        rep.check(f"dc-bound-n{n}",
                  "square of the commutator order is at most the quotient order",
                  True, dc.bound_holds, "enumeration")
        rep.check(f"dc-tight-n{n}", "the bound is attained with equality on this family",
                  dc.gamma_b_order, dc.d_c**2, "closed-form")
        rep.check(f"dc-generator-n{n}",
                  "a single pairing value generates the commutator subgroup",
                  True, dc.generator_attains, "enumeration")
        pull_index = qp.abelian_pullback(data).index
        rep.check(f"pullback-meets-search-n{n}",
                  "cyclic-pullback index equals the searched minimal abelian index",
                  gc.min_abelian_index(data.eta, budget_s=budget_s).index, pull_index,
                  "enumeration")
        if n == 6:
            ordB = gc.all_element_orders(data.gammaB)
            a = int(np.flatnonzero(ordB == 2)[0])
            b = int(np.flatnonzero(ordB == 3)[0])
            mixed = (data.g.identity, qp.q_pair(data, a, b))
        del data  # free this table before the next one is built
    if mixed is not None:
        rep.check("q-mixed-prime-n6", "pairing of a 2-element with a 3-element is the identity",
                  *mixed, "enumeration")


def _suite_esfera(rep: VerificationReport) -> None:
    from . import surface_groups as sg
    kinds = [
        sg.cyclic_kind(2), sg.cyclic_kind(3), sg.cyclic_kind(5), sg.cyclic_kind(6),
        sg.dihedral_kind(3), sg.dihedral_kind(4), sg.dihedral_kind(5), sg.dihedral_kind(6),
        sg.TETRA, sg.OCTA, sg.ICOSA,
    ]
    for kind in kinds:
        g = sg.rotation_group(kind)
        rep.check(f"order-{kind}", "group order of the rotation family member",
                  kind.order, g.order, "closed-form")
        wit = sg.esfera_witness(g, kind)
        if kind.tag in ("cyclic", "dihedral"):
            rep.check(f"sigma-{kind}", "the distinguished subgroup is characteristic",
                      1, wit.sigma_count, "enumeration")
        elif kind.tag in ("tetra", "octa"):
            rep.check(f"sigma-{kind}", "automorphism orbit of the subgroup has 3 members",
                      3, wit.sigma_count, "enumeration")
        else:
            rep.add(f"sigma-{kind}", "automorphism orbit stays within the bound 12",
                    "<= 12", wit.sigma_count, "documented-bound", wit.sigma_count <= 12)
        if kind.tag in ("tetra", "octa", "icosa"):
            rep.check(f"inverting-{kind}",
                      "an element conjugates the subgroup elementwise to inverses",
                      True, wit.inverting_element is not None, "enumeration")
        for p in (3, 5, 7):
            if g.order % p == 0:
                rep.check(f"odd-sylow-cyclic-{kind}-p{p}",
                          "odd-order p-subgroups of rotation groups are cyclic",
                          True, sg.p_group_on_sphere_is_cyclic(p, gc.sylow(g, p)),
                          "enumeration")


def _suite_tor(rep: VerificationReport, max_n: int) -> None:
    from . import surface_groups as sg
    for bound in range(2, 11):
        rep.check(f"point-orders-bound{bound}",
                  "finite-order torus symmetries have order 1, 2, 3, 4 or 6",
                  [1, 2, 3, 4, 6], sorted(sg.torus_point_orders(bound)), "enumeration")
    tor_index = {}  # reported after the fixed-point claims, from the same table
    for n in range(2, max_n + 1):
        data = hb.b_n_components(n)
        t = data.table
        rep.check(f"bn-order-n{n}", "the torus extension has order 6 n^2",
                  6 * n * n, t.order, "closed-form")
        chi, ta, tb = data.chi_idx, data.ta_idx, data.tb_idx
        chi_inv = t.inv[chi]
        rel1 = bool(t.mul[t.mul[chi_inv, ta], chi] == t.mul[ta, t.inv[tb]])
        rel2 = bool(t.mul[t.mul[chi_inv, tb], chi] == ta)
        rep.check(f"bn-relation-a-n{n}", "conjugating the first translation gives t_a t_b^-1",
                  True, rel1, "enumeration")
        rep.check(f"bn-relation-b-n{n}", "conjugating the second translation gives t_a",
                  True, rel2, "enumeration")
        if n >= 3:
            tor_index[n] = sg.tor_index_bound_check(sg.b_n_affine(data)).index
    for n in (6, 8, 9, 12):
        for k in (1, 2, 3):
            rep.check(f"fixed-points-n{n}-k{k}",
                      "fixed points of the twist power match the documented set",
                      sorted(_documented_fixed_points(n, k)),
                      sorted(hb.fixed_points_chi_power(n, k)), "documented")
    for n, index in tor_index.items():
        rep.check(f"tor-index-bn-n{n}", "translation subgroup of the full extension has index 6",
                  6, index, "enumeration")
    b5 = hb.b_n_components(5)
    for name, law, want, step in (
            ("translations", "pure translations have index 1", 1, 6),
            ("halfturn", "translations plus the half turn have index 2", 2, 3)):
        res = sg.tor_index_bound_check(sg.affine_torus_group(b5, step))
        rep.check(f"tor-index-{name}", law, want, res.index, "enumeration")


def _documented_fixed_points(n: int, k: int) -> set:
    """The fixed-point lists the index arguments quote for the twist powers.

    The k = 2 list {(0,0), (n/3,n/3)} is known to be incomplete when 3 | n:
    the fixed set of the squared twist is {(t,t) : 3t = 0 mod n}, which also
    holds (2n/3,2n/3).  The lists are kept verbatim so that the ``tor`` suite
    reports that gap as failing ``documented`` claims.
    """
    if k == 1:
        return {(0, 0)}
    if k == 2:
        return {(0, 0), (n // 3, n // 3)} if n % 3 == 0 else {(0, 0)}
    return {(u, v) for u in (0, n // 2) for v in (0, n // 2)} if n % 2 == 0 else {(0, 0)}


def _suite_sl2(rep: VerificationReport) -> None:
    # Each identity below is polynomial, and one of degree <= t in a variable
    # that vanishes on a grid of t + 1 values of it vanishes on all integers
    # (Alon, Combinatorial Nullstellensatz, 1999, Lemma 2.1).  The quadratic
    # defect has degree <= 2 in each of the 8 matrix entries; the lift defect
    # <= 1 in each matrix entry, z2 and linear term and <= 2 in every x and y.
    # Each grid is one stack of matrices and one array per coordinate; no
    # value of the lift grid exceeds 100 in magnitude, so int16 is exact there.
    F, G = np.moveaxis(np.indices((3,) * 8).reshape(2, 2, 2, -1), -1, 1)
    rep.check("cocycle-quadratic-defect",
              "lift corrections compose with vanishing quadratic defect "
              "(exact on all matrix pairs with entries in {0,1,2})",
              0, _mismatches(hb.q_form_cocycle_defect(F, G), (0, 0, 0)), "enumeration")
    grid = np.indices((2,) * 8 + (3,) * 4, dtype=np.int16).reshape(12, -1)
    (a, b, c, d), (z1, z2, l1, l2, x1, y1, x2, y2) = grid[:4], grid[4:]
    lift = hb.SL2Lift(np.moveaxis(grid[:4], 0, -1).reshape(-1, 2, 2), (l1, l2))
    g, h = (x1, y1, z1), (x2, y2, z2)
    rx, ry, rz2 = hb._heis_law(None, lift.law(g), lift.law(h))
    det_defect = (a * d - b * c - 1) * (x2 * y1 - x1 * y2)
    rep.check("lift-homomorphism",
              "every determinant-one lift respects the group law (exact: any lift's "
              "z2 defect is (det F - 1)(x2 y1 - x1 y2) on the grid {0,1}^8 x {0,1,2}^4 "
              "of entries, z2, linear terms, x and y)",
              0, _mismatches(lift.law(hb._heis_law(None, g, h)), (rx, ry, rz2 + det_defect)),
              "enumeration")
    lift = hb.sl2_lift(hb.CHI_MATRIX)
    g = tuple(np.indices((3, 3, 2)).reshape(3, -1))
    rep.check("lift-reproduces-twist",
              "the lift over [[0,-1],[1,1]] equals the order-6 twist coordinatewise "
              "(exact on the grid {0,1,2}^2 x {0,1})",
              0, _mismatches(lift.law(g), hb._twist(None, g)), "enumeration")


def _mismatches(g: tuple, h: tuple) -> int:
    """Grid points where two coordinate triples of arrays differ."""
    return int(np.count_nonzero(np.any([u != v for u, v in zip(g, h)], axis=0)))


def _suite_doubling(rep: VerificationReport) -> None:
    for p in (3, 5, 7):
        d = hb.doubling_embed(p)
        rep.check(f"doubling-hom-p{p}", "doubling is a homomorphism on all pairs",
                  True, d.verify(), "enumeration")
        rep.check(f"doubling-injective-p{p}", "doubling is injective",
                  True, d.is_injective(), "enumeration")
        img = d.image_mask()
        rep.check(f"doubling-image-p{p}", "image has p^3 elements",
                  p**3, img.size, "closed-form")
        rep.check(f"doubling-sylow-p{p}", "image order equals the Sylow order at p",
                  gc.sylow(d.target, p).size, img.size, "enumeration")
        rep.check(f"doubling-spot-p{p}", "the first translation doubles coordinatewise",
                  int(hb.gamma_elem_index(2 * p, 2, 0, 0)),
                  int(d.map[hb.gamma_elem_index(p, 1, 0, 0)]), "closed-form")


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    rep = VerificationReport("verify", {"suite": args.suite, "max_n": args.max_n,
                                        "seed": args.seed, "budget_s": args.budget_s})
    if args.suite in ("q", "all"):
        _suite_q(rep, args.max_n, args.budget_s)
    if args.suite in ("esfera", "all"):
        _suite_esfera(rep)
    if args.suite in ("tor", "all"):
        _suite_tor(rep, args.max_n)
    if args.suite in ("sl2", "all"):
        _suite_sl2(rep)
    if args.suite in ("doubling", "all"):
        _suite_doubling(rep)
    return _emit(rep, t0)


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abindex",
        description="exact finite-group computations behind the abelian-index bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--budget-s", type=float, default=300.0,
                       help="time budget in seconds for subgroup searches")

    p_gamma = sub.add_parser("gamma", help="structure report for the mod-n group")
    p_gamma.add_argument("--n", type=int, required=True)
    p_gamma.add_argument("--dump-group", metavar="PATH",
                         help="write the multiplication table as JSON")
    common(p_gamma)
    p_gamma.set_defaults(func=cmd_gamma)

    p_hat = sub.add_parser("hat-gamma", help="structure report for the twisted closure")
    p_hat.add_argument("--n", type=int, required=True)
    p_hat.add_argument("--dump-group", metavar="PATH",
                       help="write the multiplication table as JSON")
    common(p_hat)
    p_hat.set_defaults(func=cmd_hat_gamma)

    p_bound = sub.add_parser("bound", help="shape arithmetic: invariant, bound, degrees")
    p_bound.add_argument("--alpha", required=True, help="rational, e.g. 5 or 7/2")
    p_bound.add_argument("--beta", required=True, help="rational, e.g. 1 or 3/4")
    p_bound.add_argument("--p", type=int, default=None,
                         help="also decide nonabelian p-group admissibility")
    p_bound.set_defaults(func=cmd_bound)

    p_verify = sub.add_parser("verify", help="run a named property suite")
    p_verify.add_argument("--suite", required=True,
                          choices=["q", "esfera", "tor", "sl2", "doubling", "all"])
    p_verify.add_argument("--max-n", type=int, default=8)
    p_verify.add_argument("--seed", type=int, default=0)
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "n", 1) < 1 or getattr(args, "max_n", 1) < 1:
            raise InvalidInput("n must be positive")
        if not 0 <= getattr(args, "budget_s", 0) < float("inf"):  # also false for NaN
            raise InvalidInput("budget must be a finite non-negative number of seconds")
        if getattr(args, "seed", 0) < 0:
            raise InvalidInput("seed must be non-negative")
        return args.func(args)
    except (InvalidInput, CapExceeded, SearchTimeout, MemoryError) as exc:
        usage = isinstance(exc, InvalidInput)  # exit 2; the size and time refusals exit 3
        doc = {"command": args.command, "error": str(exc) or "out of memory"}
        if isinstance(exc, SearchTimeout):
            # the incumbent: an abelian subgroup of this order exists
            doc["best_order_found"] = exc.best_order_found
        json.dump(doc, sys.stdout)
        sys.stdout.write("\n")
        print(f"{'error' if usage else 'aborted'}: {exc}", file=sys.stderr)
        return 2 if usage else 3


if __name__ == "__main__":
    raise SystemExit(main())
