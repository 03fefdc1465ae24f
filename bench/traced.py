"""One traced CLI job, run in a fresh interpreter.

Wraps the public functions of ``heisenberg``, ``group_core``, ``qpairing``,
``surface_groups`` and ``cli`` in spans, in every module namespace that binds
them (some modules import names directly), and then runs the real CLI
(``cli.main``) on the given arguments.  Nested calls nest their spans, so a
memoised step (``all_element_orders`` caching on the table, an
``lru_cache``d constructor) is charged to its own layer by self time.

After the job, every table a traced constructor returned is validated once
more (``GroupTable(t.mul)``) and the time is recorded as a
``group_core.validate`` child of the span that built it: the construction's
self time is then its duration minus its tables' validation.

Writes one JSON document to stdout: the CLI's exit code and report, the
spans (name, start, end, parent, job) and the exact counts.

Usage: PYTHONPATH=src python bench/traced.py JOB CLI-ARGS...
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
from operator import attrgetter, itemgetter

from abindex import cli
from abindex import group_core as gc
from abindex import heisenberg as hb
from abindex import jordan_bounds as jb
from abindex import qpairing as qp
from abindex import surface_groups as sg

MODULES = (cli, gc, hb, jb, qp, sg)
VALIDATE = "group_core.validate"


def _same(x):
    return x


# (owner, attribute, span name, picker of the built table or None).  The sl2
# suite is timed as one span around the CLI's suite: its work is the exact
# Heisenberg arithmetic of some 25 000 small calls, too short to span singly.
SPANS = [
    (hb, "gamma_n", "heisenberg.gamma_n", _same),
    (hb, "hat_gamma_n", "heisenberg.hat_gamma_n", attrgetter("table")),
    (hb, "b_n_components", "heisenberg.b_n", attrgetter("table")),
    (hb, "doubling_embed", "heisenberg.doubling", None),
    (hb, "fixed_points_chi_power", "heisenberg.fixed_points", None),
    (cli, "_suite_sl2", "heisenberg.sl2", None),
    (gc, "center", "group_core.center", None),
    (gc, "commutator_subgroup", "group_core.commutator", None),
    (gc, "all_element_orders", "group_core.orders", None),
    (gc, "sylow", "group_core.sylow", None),
    (gc, "is_normal", "group_core.is_normal", None),
    (gc, "min_abelian_index", "group_core.search", None),
    (gc, "subgroup_table", "group_core.subgroup_table", itemgetter(0)),
    (gc.Homomorphism, "verify", "group_core.homomorphism", None),
    (gc.Homomorphism, "image_mask", "group_core.homomorphism", None),
    (gc.Homomorphism, "is_injective", "group_core.homomorphism", None),
    (gc.Homomorphism, "is_surjective", "group_core.homomorphism", None),
    (qp, "gamma_central_data", "qpairing.central_data", attrgetter("gammaB")),
    (qp, "verify_q_properties", "qpairing.q_properties", None),
    (qp, "verify_lift_independence", "qpairing.lift_independence", None),
    (qp, "check_dc_bound", "qpairing.dc_bound", None),
    (qp, "abelian_pullback", "qpairing.pullback", None),
    (qp, "q_pair", "qpairing.q_pair", None),
    (sg, "rotation_group", "surface_groups.rotation_group", _same),
    (sg, "esfera_witness", "surface_groups.esfera_witness", None),
    (sg, "p_group_on_sphere_is_cyclic", "surface_groups.p_group_cyclic", None),
    (sg, "torus_point_orders", "surface_groups.torus_point_orders", None),
    (sg, "b_n_affine", "surface_groups.b_n_affine", attrgetter("table")),
    (sg, "affine_torus_group", "surface_groups.affine_torus_group", attrgetter("table")),
    (sg, "tor_index_bound_check", "surface_groups.tor_index", None),
    (cli, "_emit", "cli.emit", None),
]
# constructors whose tables make up heisenberg.table_bytes
HEISENBERG_TABLES = {"heisenberg.gamma_n", "heisenberg.hat_gamma_n", "heisenberg.b_n"}


class Tracer:
    """Spans (name, start, end, parent, job), built tables and exact counts of one job."""

    def __init__(self, job: int):
        self.job = job
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._tables: dict[int, tuple[gc.GroupTable, int, str]] = {}
        self._searches: dict[int, gc.AbelianIndexResult] = {}

    def wrap(self, fn, name: str, table):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            rec = {"id": sid, "name": name, "job": self.job,
                   "parent": self._stack[-1] if self._stack else None,
                   "start": time.perf_counter(), "end": None}
            self.spans.append(rec)
            self._stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
            if table is not None:
                # a memoised constructor returns the same table again: keep its first builder
                self._tables.setdefault(id(table(out)), (table(out), sid, name))
            if isinstance(out, gc.AbelianIndexResult):
                self._searches.setdefault(id(out), out)
            return out
        return traced

    def install(self) -> None:
        """Replace each traced function wherever it is bound."""
        for owner, attr, name, table in SPANS:
            fn = getattr(owner, attr)
            traced = self.wrap(fn, name, table)
            owners = [owner] if isinstance(owner, type) else MODULES
            for mod in owners:
                if vars(mod).get(attr) is fn:
                    setattr(mod, attr, traced)

    def validate_built(self) -> None:
        """One extra validation per built table, as a child of the span that built it."""
        for t, owner, _ in self._tables.values():
            t0 = time.perf_counter()
            gc.GroupTable(t.mul)
            self.spans.append({"id": len(self.spans), "name": VALIDATE, "job": self.job,
                               "parent": owner, "start": t0, "end": time.perf_counter()})

    def counts(self, report: str) -> dict:
        searches = self._searches.values()
        return {
            "heisenberg.table_bytes": sum(int(t.mul.nbytes) for t, _, name in
                                          self._tables.values() if name in HEISENBERG_TABLES),
            "group_core.search.nodes": sum(r.nodes_explored for r in searches),
            "group_core.search.index": sum(r.index for r in searches),
            "cli.report_bytes": len(report.encode()),
        }


def main(argv: list[str]) -> int:
    tr = Tracer(int(argv[0]))
    tr.install()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv[1:])
    tr.validate_built()
    report = buf.getvalue()
    json.dump({"exit": code, "report": report, "spans": tr.spans,
               "counts": tr.counts(report)}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
