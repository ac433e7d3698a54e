"""Tests of the benchmark itself (not of symsplit).

    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the library's own test run does not
collect it.  Workloads are shrunk here so the suite stays fast; the
checks and counters under test are the ones the full runs use.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import instrument  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from symsplit import cli, fastpath, integrators, verification  # noqa: E402
from symsplit.hamiltonian import PhasePoint  # noqa: E402


class SmallEndurance(workloads.Endurance):
    periods = 12
    round_size = 3


class SmallTrace(workloads.Trace):
    periods = 1
    round_size = 2


class SmallGeneric(workloads.Generic):
    steps_1d = 3
    steps_4d = 3
    round_size = 2


SMALL = {
    "endurance": SmallEndurance,
    "trace": SmallTrace,
    "figures": workloads.Figures,
    "generic": SmallGeneric,
}


def _traced_counts(workload, seed, workdir):
    tracer = instrument.Instrument(spans=True)
    inputs = workload.inputs(seed)
    result = run.run_pass(workload, inputs, workdir, tracer, 0.0, len(inputs))
    assert result.failures == []
    metrics = tracer.layer_metrics(0.0, 0.0)
    return {name: metrics[name][0] for name in instrument.COUNT_METRICS}, tracer


@pytest.mark.parametrize("name", sorted(SMALL))
def test_layer_counts_repeat_exactly(name, tmp_path):
    workload = SMALL[name]()
    workload.warmup(tmp_path)
    first, tracer = _traced_counts(workload, 7, tmp_path)
    second, _ = _traced_counts(workload, 7, tmp_path)
    assert first == second
    assert sum(first.values()) > 0
    assert {s[0] for s in tracer.spans} >= {"op"}
    assert all(end >= start for _, start, end, _, _ in tracer.spans)


def _flat(item):
    if isinstance(item, workloads.GenericInput):
        return np.concatenate([item.x1.as_array(), item.stiffness.ravel(),
                               item.mass.ravel(), item.x4.as_array()])
    return item.as_array()


def test_inputs_follow_the_seed():
    for cls in (workloads.Endurance, workloads.Trace, workloads.Generic):
        a, b, c = ([_flat(x) for x in cls().inputs(s)] for s in (3, 3, 4))
        assert all(np.array_equal(u, v) for u, v in zip(a, b))
        assert not any(np.array_equal(u, v) for u, v in zip(a, c))


def test_level_set_points_have_energy_half():
    for x in workloads.level_set_round(11, 32):
        assert abs(0.5 * x.p[0] ** 2 + 0.25 * x.q[0] ** 4 - 0.5) < 1e-15


def test_generic_problem_is_normalised():
    problem = workloads.generic_problem(np.random.default_rng(2), PhasePoint([0.0], [1.0]))
    omega2 = np.linalg.eigvals(problem.mass @ problem.stiffness).real
    assert omega2.max() == pytest.approx(1.0)
    assert omega2.min() > 0
    assert not np.allclose(problem.mass, np.eye(4))


def test_instrument_restores_every_binding():
    before = {name: getattr(owner, attr) for name, owner, attr in instrument.LAYER_FUNCTIONS}
    bound = (cli.measure_period, verification.fastpath.fast_run, integrators.kick)
    tracer = instrument.Instrument(spans=True).install()
    assert cli.measure_period is not bound[0]
    assert fastpath.fast_run is not bound[1]
    tracer.uninstall()
    assert (cli.measure_period, verification.fastpath.fast_run, integrators.kick) == bound
    assert before == {name: getattr(owner, attr)
                      for name, owner, attr in instrument.LAYER_FUNCTIONS}


def test_op_is_timed_when_it_raises():
    meter = instrument.Instrument(spans=False)
    with pytest.raises(integrators.NewtonDiverged):
        with meter.op("diverges"):
            raise integrators.NewtonDiverged(1.0, 25)
    assert meter.wall_s > 0 and meter.ref_s > 0


def test_endurance_check_applies_the_criterion_7_rule():
    workload = SmallEndurance()
    x0 = workload.inputs(1)[0]
    assert workload.check(x0, (1e-12, 2e-12), None).failures == []
    assert workload.check(x0, (1e-12, 1e-9), None).failures
    diverged = integrators.NewtonDiverged(1.0, 25, step_index=3)
    assert workload.check(x0, diverged, None).failures


def test_trace_check_catches_a_wrong_energy_column(tmp_path):
    workload = SmallTrace()
    x0 = workload.inputs(1)[0]
    result = workload.episode(x0, tmp_path, instrument.Instrument(spans=False))
    assert workload.check(x0, result, tmp_path).failures == []
    path = workload._path(tmp_path, workload.schemes[1])
    lines = path.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[4] = repr(float(fields[4]) * (1 + 1e-12))
    path.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    failures = workload.check(x0, result, tmp_path).failures
    assert any("H column" in f for f in failures)
    assert workload.check(x0, [(2, "diverged"), result[1]], tmp_path).failures


def test_trace_final_check_compares_bytes(tmp_path):
    workload = SmallTrace()
    assert workload.final_checks(workload.inputs(1), tmp_path).failures == []


def test_generic_check_catches_a_wrong_final_state():
    workload = SmallGeneric()
    problem = workload.inputs(1)[0]
    x1, err4 = workload.episode(problem, None, instrument.Instrument(spans=False))
    assert workload.check(problem, (x1, err4), None).failures == []
    moved = PhasePoint(x1.q + 1e-12, x1.p)
    assert workload.check(problem, (moved, err4), None).failures
    assert workload.check(problem, (x1, 1e-6), None).failures


def test_figures_check_catches_missing_series(tmp_path):
    workload = workloads.Figures()
    result = {"figure 1": (0, ""), "figure 3": (0, ""), "order": (0, "")}
    (tmp_path / "orders.csv").write_text("scheme,x\n")
    failures = workload.check(None, result, tmp_path).failures
    assert any("fig1_" in f for f in failures)
    assert any("orders.csv" in f for f in failures)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(instrument.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


def test_figure5_steps_match_the_acceptance_test():
    assert workloads.FIGURE5_STEPS == math.ceil(
        262718.0 * verification.quartic_period() / 0.05)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "trace", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
