"""Span tracing of nlact from outside the package, and the per-layer metrics.

``Tracer.installed()`` replaces each traced function at the name its callers
look it up by (``nlact.sweep.sigma_min``, ``nlact.activation.solve``, the
``numpy.linalg`` eigensolvers, ...) with a wrapper that records one span per
call: name, start, end and the enclosing span.  Spans stay in memory as flat
arrays; per-layer self time (a span's duration minus its child spans) and the
other per-layer metrics are computed from them after the pass.  Leaving the
context puts every original back.
"""

from __future__ import annotations

import statistics
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable

import numpy as np

import nlact.activation
import nlact.cli
import nlact.measures
import nlact.sweep
from nlact.linalg import DensityMatrix
from nlact.states import FamilySpec

LAYERS = ("cli", "sweep", "activation", "sdp", "measures", "states", "linalg")
MEASURES = (
    "eof", "chsh_M", "chsh_value", "hidden_nonlocality", "sa_value",
    "fef_isotropic", "popescu_filter", "cglmp_value", "k_factor",
)
# problem sides of the activation SDP: 4 d^2 for d = 2..6
SIDES = (16, 36, 64, 100, 144)
CERTIFIED = ("converged", "decided")
STATUSES = ("converged", "decided", "max_iters", "infeasible_numerics")


def targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) of every traced function.

    The span name's first part is the layer.  ``k_factor`` is traced where
    the CLI, its only caller, looks it up.
    """
    found = [
        (nlact.cli, "main", "cli.main"),
        (nlact.sweep, "evaluate_point", "sweep.evaluate_point"),
        (nlact.sweep, "prescan_bracket", "sweep.prescan_bracket"),
        (nlact.sweep, "find_threshold", "sweep.find_threshold"),
        (nlact.sweep, "sigma_min", "activation.sigma_min"),
        (nlact.activation, "build_cost", "activation.build_cost"),
        (nlact.activation, "solve", "sdp.solve"),
        (FamilySpec, "state", "states.state"),
        (DensityMatrix, "__post_init__", "linalg.DensityMatrix"),
        (np.linalg, "eigh", "linalg.eigh"),
        (np.linalg, "eigvalsh", "linalg.eigvalsh"),
    ]
    found += [(nlact.measures, fn, f"measures.{fn}") for fn in MEASURES if fn != "k_factor"]
    found.append((nlact.cli, "k_factor", "measures.k_factor"))
    return found


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.side = array("i")  # matrix side of an eigensolver call, else 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.solves: list[tuple[int, int, int, str, float]] = []  # span, side, iterations, status, gap
        self.evaluations: list[int] = []  # ThresholdReport.evaluations per find_threshold
        self.tlf_points = 0
        self.missing_points = 0
        self.raised: Counter[str] = Counter()

    def _wrap(self, fn: Callable, name: str, hook: Callable | None) -> Callable:
        self.names.append(name)
        nid = len(self.names) - 1
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.side.append(0)
            self.end.append(0.0)
            stack.append(span)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.raised[name] += 1
                raise
            finally:
                self.end[span] = clock()
                stack.pop()
            if hook is not None:
                hook(span, args, result)
            return result

        return traced

    def _hooks(self) -> dict[str, Callable]:
        def solve(span, args, result):
            gap = result.residuals["certified_gap"]
            self.solves.append((span, args[0].cost.shape[0], result.iterations, result.status, gap))

        def evaluate(span, args, result):
            self.tlf_points += args[1] == "tlf"
            self.missing_points += result.error is not None

        def eig(span, args, result):
            self.side[span] = np.shape(args[0])[0]

        return {
            "sdp.solve": solve,
            "sweep.evaluate_point": evaluate,
            "sweep.find_threshold": lambda span, args, result: self.evaluations.append(result.evaluations),
            "linalg.eigh": eig,
            "linalg.eigvalsh": eig,
        }

    @contextmanager
    def installed(self):
        """Trace inside the block; every original is restored on exit."""
        hooks = self._hooks()
        try:
            for owner, attr, name in targets():
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, hooks.get(name)))
            yield self
        finally:
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every traced attribute holds its original object again."""
        return all(vars(owner)[attr] is original for owner, attr, original in self._saved)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from the recorded spans: name -> (value, unit)."""
        names = np.array([*self.names, ""], dtype=object)  # "" names a missing parent
        layer_of = np.array([name.split(".")[0] for name in names], dtype=object)
        nid = np.array(self.name_id, dtype=int)
        parent = np.array(self.parent, dtype=int)
        dur = np.array(self.end) - np.array(self.start)
        side = np.array(self.side, dtype=int)
        span_name = names[nid]
        parent_name = names[np.where(parent >= 0, nid[parent], len(self.names))]
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - children

        def calls(name: str) -> int:
            return int(np.count_nonzero(span_name == name))

        def total(name: str) -> float:
            return float(dur[span_name == name].sum())

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        m: dict[str, tuple[float, str]] = {}

        # sdp: one span per solve, with the solver's own iteration count and status
        solve_dur = {span: float(dur[span]) for span, *_ in self.solves}
        iterations = [it for _, _, it, _, _ in self.solves]
        m["sdp.solve.calls"] = (len(self.solves), "count")
        m["sdp.solve_s"] = (total("sdp.solve"), "s")
        m["sdp.iterations"] = (sum(iterations), "count")
        m["sdp.iterations.p50"] = (float(statistics.median(iterations)) if iterations else 0.0, "count")
        m["sdp.iterations.max"] = (max(iterations, default=0), "count")
        status = Counter(st for _, _, _, st, _ in self.solves)
        for st in STATUSES:
            m[f"sdp.status.{st}"] = (status[st], "count")
        m["sdp.certified_gap.max"] = (max((g for *_, g in self.solves if np.isfinite(g)), default=0.0), "objective")
        in_solve = (span_name == "linalg.eigh") & (parent_name == "sdp.solve")
        m["sdp.eigh.calls"] = (int(np.count_nonzero(in_solve)), "count")
        eigh_in = float(dur[in_solve].sum())
        m["sdp.eigh_share"] = (ratio(eigh_in, total("sdp.solve")), "ratio")
        for n in SIDES:
            spans = [s for s, side_n, *_ in self.solves if side_n == n]
            iters_n = sum(it for _, side_n, it, _, _ in self.solves if side_n == n)
            time_n = sum(solve_dur[s] for s in spans)
            m[f"sdp.us_per_iter.n{n}"] = (1e6 * ratio(time_n, iters_n), "us")
            eig_n = in_solve & (side == n)
            m[f"sdp.eigh_us.n{n}"] = (1e6 * float(dur[eig_n].mean()) if eig_n.any() else 0.0, "us")
            m[f"sdp.eigh_share.n{n}"] = (ratio(float(dur[eig_n].sum()), time_n), "ratio")

        # activation
        m["activation.sigma_min.calls"] = (calls("activation.sigma_min"), "count")
        m["activation.sigma_min_s"] = (total("activation.sigma_min"), "s")
        m["activation.build_cost_s"] = (total("activation.build_cost"), "s")
        certified = sum(st in CERTIFIED for _, _, _, st, _ in self.solves)
        m["activation.certified_frac"] = (ratio(certified, len(self.solves)), "ratio")

        # sweep
        point_dur = dur[span_name == "sweep.evaluate_point"]
        m["sweep.evaluate_point.calls"] = (len(point_dur), "count")
        m["sweep.evaluate_point_s.p50"] = (float(np.percentile(point_dur, 50)) if len(point_dur) else 0.0, "s")
        m["sweep.evaluate_point_s.p90"] = (float(np.percentile(point_dur, 90)) if len(point_dur) else 0.0, "s")
        m["sweep.prescan_bracket_s"] = (total("sweep.prescan_bracket"), "s")
        m["sweep.find_threshold_s"] = (total("sweep.find_threshold"), "s")
        m["sweep.evaluations_per_threshold"] = (
            float(statistics.mean(self.evaluations)) if self.evaluations else 0.0, "count"
        )
        m["sweep.retries"] = (calls("activation.sigma_min") - self.tlf_points, "count")
        m["sweep.missing_points"] = (self.missing_points + self.raised["sweep.evaluate_point"], "count")

        # measures, states, linalg
        for fn in MEASURES:
            m[f"measures.{fn}.calls"] = (calls(f"measures.{fn}"), "count")
            m[f"measures.{fn}_s"] = (total(f"measures.{fn}"), "s")
        m["states.state.calls"] = (calls("states.state"), "count")
        m["states.state_s"] = (total("states.state"), "s")
        m["linalg.DensityMatrix.calls"] = (calls("linalg.DensityMatrix"), "count")
        m["linalg.DensityMatrix_s"] = (total("linalg.DensityMatrix"), "s")
        outside = (span_name == "linalg.eigvalsh") & (parent_name != "sdp.solve")
        m["linalg.eigvalsh.calls"] = (int(np.count_nonzero(outside)), "count")

        m["cli.main_s"] = (total("cli.main"), "s")
        layer = layer_of[nid]
        for name in LAYERS:
            m[f"{name}.self_s"] = (float(self_time[layer == name].sum()), "s")
        m["trace.spans"] = (len(dur), "count")
        return m
