"""Host-speed reference, spans and counters around symsplit's layer functions.

The library is not edited.  A pass installs wrappers by replacing, in every
loaded ``symsplit`` module, each attribute bound to a layer function (the
CLI, for one, imports ``measure_period`` under its own name), and removes
them afterwards.  Two strengths:

* ``Instrument(spans=False)`` is the step meter of timed runs: it wraps
  only ``fastpath.fast_run`` and ``integrators.integrate`` to count the
  steps they complete, one addition per call.
* ``Instrument(spans=True)`` is the traced run: every layer function
  records a span (name, start, end, parent, trajectory id) in memory, and
  observers count Newton iterations, residual evaluations, ``_contract``
  calls, CSV rows and bytes.  ``layer_metrics`` turns both into the
  per-layer metrics listed in ``PER_LAYER``.

Both time each operation of an episode (``op``) twice: as wall seconds,
and as reference seconds, the wall time divided by the duration of a
fixed reference loop timed just before and just after it and
multiplied by that loop's nominal duration ``REF_LOOP_S``.  The host this
benchmark was written on alternates, for seconds to minutes at a time,
between a fast state and one about a third slower, on both CPUs and with
no steal time reported; the reference loop slows with it, so reference
seconds stay steady where wall seconds do not.  The loop is the
benchmark's own code: a faster symsplit does not make it faster.

Checks run with ``active`` set to False, so oracle calls are not counted.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from symsplit import cli, fastpath, integrators, operators, verification

# median duration of ``reference_loop`` on the host the benchmark was
# defined on (2 vCPU, Python 3.11.7, numpy 2.4.6); it fixes the unit, not a gate
REF_LOOP_S = 0.0029
_REF_COEFFS = (0.0, 0.3, -0.2, 0.1, 0.25, 0.05)
_REF_POLY = np.array(_REF_COEFFS[::-1])


def reference_loop(n: int = 2500) -> float:
    """The three kinds of work the workloads do, in fixed amounts.

    Scalar Horner evaluations in plain Python (the fallback kernel), small
    numpy calls (the generic engine, period fits) and 17-digit float
    formatting (CSV rows).
    """
    acc, x = 0.0, 0.1
    for i in range(n):
        v = 0.0
        for c in _REF_COEFFS:
            v = v * x + c
        acc += v
        x = x + 1e-5 if x < 1.0 else -x
        if i % 25 == 0:
            acc += float(np.polyval(_REF_POLY, x)) + len(format(acc, ".17g"))
    return acc


def reference_seconds(repeats: int = 5) -> float:
    """Median wall time of a few reference loops: the host's current speed."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def to_reference(wall: float, ref_before: float, ref_after: float) -> float:
    return wall * REF_LOOP_S * 2.0 / (ref_before + ref_after)


# (span name, owner, attribute); the owner is a module or a class
LAYER_FUNCTIONS = (
    ("fastpath.fast_run", fastpath, "fast_run"),
    ("fastpath.tables_for", fastpath, "tables_for"),
    ("fastpath.fold", fastpath.FastTables, "fold"),
    ("integrators.integrate", integrators, "integrate"),
    ("integrators.kick", integrators, "kick"),
    ("integrators.move_generating", integrators, "move_generating"),
    ("operators.v_eff_grad", operators, "v_eff_grad"),
    ("operators.grad_q", operators, "generating_function_grad_q"),
    ("operators.grad_p", operators, "generating_function_grad_p"),
    ("cli.execute_run", cli, "execute_run"),
    ("cli.write_trace", cli, "write_trace"),
    ("verification.energy_deviation_maxima", verification, "energy_deviation_maxima"),
    ("verification.measure_period", verification, "measure_period"),
    ("verification.period_estimate", verification, "period_estimate"),
    ("verification.reference_solution", verification, "reference_solution"),
)
METERED = ("fastpath.fast_run", "integrators.integrate")

# name, unit, better; the order is the report order
PER_LAYER = (
    ("fastpath.steps", "count", "higher"),
    ("fastpath.kernel_s", "s", "lower"),
    ("fastpath.kernel_ns_per_step", "ns/step", "lower"),
    ("fastpath.tables_for_s", "s", "lower"),
    ("fastpath.fold_s", "s", "lower"),
    ("fastpath.newton_iters_per_step", "count/step", "lower"),
    ("fastpath.newton_iters_max", "count", "lower"),
    ("operators.v_eff_grad_s", "s", "lower"),
    ("operators.v_eff_grad_calls", "count", "lower"),
    ("operators.grad_q_s", "s", "lower"),
    ("operators.grad_q_calls", "count", "lower"),
    ("operators.grad_p_s", "s", "lower"),
    ("operators.grad_p_calls", "count", "lower"),
    ("operators.contract_calls_per_step", "count/step", "lower"),
    ("integrators.steps", "count", "higher"),
    ("integrators.kick_s", "s", "lower"),
    ("integrators.move_s", "s", "lower"),
    ("integrators.newton_iters_per_step", "count/step", "lower"),
    ("integrators.newton_iters_max", "count", "lower"),
    ("integrators.residual_max", "abs", "lower"),
    ("integrators.residual_evals_per_iter", "count/iter", "lower"),
    ("cli.trace_rows_s", "s", "lower"),
    ("cli.write_trace_s", "s", "lower"),
    ("cli.rows", "count", "higher"),
    ("cli.csv_bytes", "bytes", "lower"),
    ("verification.measure_period_s", "s", "lower"),
    ("verification.period_estimate_s", "s", "lower"),
    ("verification.reference_solution_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("derived.figure5_projected_s", "s", "lower"),
)

# per-layer metrics that are counts of work, not times: they must repeat
# exactly between two traced runs with the same seed
COUNT_METRICS = tuple(name for name, unit, _ in PER_LAYER
                      if unit.startswith("count") or unit in ("abs", "bytes"))


class Instrument:
    def __init__(self, spans: bool):
        self.spans_on = spans
        self.active = True
        self.spans = []          # [name, start_ns, end_ns, parent index, trajectory]
        self._stack = []
        self.trajectory = None
        self.counts = Counter()
        self.newton_hist = {"fastpath": Counter(), "integrators": Counter()}
        self.residual_max = 0.0
        self.wall_s = 0.0        # summed over operations
        self.ref_s = 0.0
        self._undo = []
        self._observers = {
            "fastpath.fast_run": self._saw_fast_run,
            "integrators.integrate": self._saw_integrate,
            "integrators.move_generating": self._saw_move,
            "cli.write_trace": self._saw_write_trace,
        }

    # -- installation -------------------------------------------------------

    def install(self) -> "Instrument":
        for name, owner, attr in LAYER_FUNCTIONS:
            if self.spans_on or name in METERED:
                self._replace(getattr(owner, attr), self._wrap(name, getattr(owner, attr)),
                              owner if isinstance(owner, type) else None)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, original, wrapper, cls=None) -> None:
        owners = [cls] if cls is not None else [
            mod for key, mod in list(sys.modules.items())
            if key == "symsplit" or key.startswith("symsplit.")]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._undo.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        observe = self._observers.get(name)
        signature = inspect.signature(fn)

        if not self.spans_on:
            def metered(*args, **kwargs):
                result = fn(*args, **kwargs)
                if self.active:
                    observe(signature.bind(*args, **kwargs).arguments, result)
                return result
            return metered

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            with self._span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(signature.bind(*args, **kwargs).arguments, result)
            return result
        return traced

    @contextlib.contextmanager
    def _span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent, self.trajectory]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter_ns()

    # -- hooks the workloads call -------------------------------------------

    @contextlib.contextmanager
    def op(self, trajectory: str):
        """One timed operation; traced, a root span whose spans share its id."""
        before = reference_seconds()
        t0 = time.perf_counter()
        try:
            if self.spans_on:
                self.trajectory = f"{self.counts['op.calls']}:{trajectory}"
                self.counts["op.calls"] += 1
                with self._span("op"):
                    yield
            else:
                yield
        finally:
            wall = time.perf_counter() - t0
            self.wall_s += wall
            self.ref_s += to_reference(wall, before, reference_seconds())

    def potential(self, pot):
        """Count ``_contract`` calls through an instance attribute."""
        if not self.spans_on:
            return pot
        inner = pot._contract

        def contract(q, dirs):
            if self.active:
                self.counts["contract.calls"] += 1
            return inner(q, dirs)

        pot._contract = contract
        return pot

    # -- observers ----------------------------------------------------------

    def _saw_fast_run(self, args, run) -> None:
        self.counts["fastpath.steps"] += run.completed_steps
        if self.spans_on:
            self.newton_hist["fastpath"].update(run.rec_iters.tolist())

    def _saw_integrate(self, args, result) -> None:
        self.counts["integrators.steps"] += args["n_steps"]

    def _saw_move(self, args, result) -> None:
        report = result[1]
        self.newton_hist["integrators"][report.newton_iterations] += 1
        self.residual_max = max(self.residual_max, report.newton_residual)

    def _saw_write_trace(self, args, result) -> None:
        self.counts["cli.rows"] += len(args["rows"])
        self.counts["cli.csv_bytes"] += Path(args["path"]).stat().st_size

    # -- results ------------------------------------------------------------

    @property
    def steps(self) -> int:
        return self.counts["fastpath.steps"] + self.counts["integrators.steps"]

    def span_times(self) -> tuple:
        """(total seconds, self seconds) per span name."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, own = Counter(), Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            total[name] += (end - start) * 1e-9
            own[name] += (end - start - inner) * 1e-9
        return total, own

    def layer_metrics(self, overhead_share: float, figure5_s: float) -> dict:
        total, own = self.span_times()
        c = self.counts
        fast_hist = self.newton_hist["fastpath"]
        int_hist = self.newton_hist["integrators"]
        kernel_s = own["fastpath.fast_run"]
        int_iters = sum(k * n for k, n in int_hist.items())
        values = {
            "fastpath.steps": c["fastpath.steps"],
            "fastpath.kernel_s": kernel_s,
            "fastpath.kernel_ns_per_step": _ratio(kernel_s * 1e9, c["fastpath.steps"]),
            "fastpath.tables_for_s": total["fastpath.tables_for"],
            "fastpath.fold_s": total["fastpath.fold"],
            "fastpath.newton_iters_per_step": _mean(fast_hist),
            "fastpath.newton_iters_max": max(fast_hist, default=0),
            "operators.v_eff_grad_s": total["operators.v_eff_grad"],
            "operators.v_eff_grad_calls": c["operators.v_eff_grad.calls"],
            "operators.grad_q_s": total["operators.grad_q"],
            "operators.grad_q_calls": c["operators.grad_q.calls"],
            "operators.grad_p_s": total["operators.grad_p"],
            "operators.grad_p_calls": c["operators.grad_p.calls"],
            "operators.contract_calls_per_step":
                _ratio(c["contract.calls"], c["integrators.steps"]),
            "integrators.steps": c["integrators.steps"],
            "integrators.kick_s": own["integrators.kick"],
            "integrators.move_s": own["integrators.move_generating"],
            "integrators.newton_iters_per_step": _mean(int_hist),
            "integrators.newton_iters_max": max(int_hist, default=0),
            "integrators.residual_max": self.residual_max,
            "integrators.residual_evals_per_iter":
                _ratio(c["operators.grad_q.calls"], int_iters),
            "cli.trace_rows_s": own["cli.execute_run"],
            "cli.write_trace_s": total["cli.write_trace"],
            "cli.rows": c["cli.rows"],
            "cli.csv_bytes": c["cli.csv_bytes"],
            "verification.measure_period_s": own["verification.measure_period"],
            "verification.period_estimate_s": total["verification.period_estimate"],
            "verification.reference_solution_s": total["verification.reference_solution"],
            "trace.overhead_share": overhead_share,
            "derived.figure5_projected_s": figure5_s,
        }
        return {name: (values[name], unit) for name, unit, _ in PER_LAYER}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, trajectory in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "trajectory": trajectory}) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _mean(hist: Counter) -> float:
    return _ratio(sum(k * n for k, n in hist.items()), sum(hist.values()))
