"""symsplit benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; symsplit is imported from ``src/`` beside this
directory, so nothing needs installing.  Workloads (see ``workloads.py``
and ``README.md``): endurance, trace, figures, generic.

``--trace 0`` times episodes for S seconds (and at least one round) with
only a step meter installed and reports the end-to-end metrics.
``--trace 1`` times for S/2 seconds untraced, then runs the first
``TRACED_EPISODES`` episodes traced and reports the per-layer metrics and
the tracing overhead.  Times are in reference seconds (``instrument.py``).
Both print a readable report, each line labelled with the backend that
ran, and end with one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 when every check passed, 1 when one
failed, 2 when the sources are missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("endurance", "trace", "figures", "generic")
SETUP_SAMPLES = 7
# episodes in the traced pass (the first ones of the round), and the least
# number the untraced pass of a traced run makes to compare against
TRACED_EPISODES = 8

END_TO_END = (
    ("wall_s", "s"),
    ("steps_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("energy_err_max", "abs"),
)


@dataclass
class PassResult:
    walls: list = field(default_factory=list)       # reference seconds per episode
    raw_walls: list = field(default_factory=list)   # wall seconds per episode
    rates: list = field(default_factory=list)       # steps per reference second
    energy_err: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)

    def add(self, outcome) -> None:
        self.energy_err = max(self.energy_err, outcome.energy_err)
        self.attempted += outcome.attempted
        self.failures.extend(outcome.failures)


def run_pass(workload, inputs, workdir, instrument, seconds, min_episodes) -> PassResult:
    """Episodes for ``seconds``, and at least ``min_episodes``, cycling ``inputs``."""
    result = PassResult()
    instrument.install()
    try:
        start = time.perf_counter()
        i = 0
        while i < min_episodes or time.perf_counter() - start < seconds:
            item = inputs[i % len(inputs)]
            before = (instrument.steps, instrument.wall_s, instrument.ref_s)
            gc.collect()
            output = workload.episode(item, workdir, instrument)
            ref = instrument.ref_s - before[2]
            result.walls.append(ref)
            result.raw_walls.append(instrument.wall_s - before[1])
            result.rates.append((instrument.steps - before[0]) / ref)
            instrument.active = False
            result.add(workload.check(item, output, workdir))
            instrument.active = True
            i += 1
    finally:
        instrument.uninstall()
    return result


def measure_setup(name: str, reference) -> tuple:
    """Reference seconds of fresh probe processes; the first (cold bytecode) is dropped."""
    samples, failures = [], []
    for k in range(SETUP_SAMPLES + 1):
        ref_before = reference.reference_seconds()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), name], cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            failures.append(f"setup probe exit {proc.returncode}: {proc.stderr.strip()}")
        elif k:
            samples.append(reference.to_reference(wall, ref_before,
                                                  reference.reference_seconds()))
    return samples, failures


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "symsplit").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()[:12]
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line[:12]
    except OSError:
        pass
    return "n/a"


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"n={len(values)}, median {statistics.median(values):.6g}, "
            f"quartiles {q1:.6g} .. {q3:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "symsplit" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no symsplit sources at {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import instrument
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    backend = workload.backend()
    setup, failures = ([], []) if args.trace else measure_setup(args.workload, instrument)
    attempted = 0 if args.trace else SETUP_SAMPLES + 1
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    traced = tracer = None
    try:
        workload.warmup(workdir)
        inputs = workload.inputs(args.seed)
        meter = instrument.Instrument(spans=False)
        if args.trace:
            traced_inputs = inputs[:TRACED_EPISODES]
            timed = run_pass(workload, inputs, workdir, meter, args.seconds / 2,
                             len(traced_inputs))
        else:
            # a full round, so energy_err_max sees every start state
            timed = run_pass(workload, inputs, workdir, meter, args.seconds, len(inputs))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer = instrument.Instrument(spans=True)
            traced = run_pass(workload, traced_inputs, workdir, tracer, 0.0,
                              len(traced_inputs))
        final = workload.final_checks(inputs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for part in (timed, traced, final):
        if part is not None:
            attempted += part.attempted
            failures.extend(part.failures)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"backend={backend} cpus={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} commit={commit_id()} src_sha256={source_digest()}")
    print(f"episodes={len(timed.walls)} round={len(inputs)}")
    steps_per_s = statistics.median(timed.rates)
    end_to_end = {
        "wall_s": (statistics.median(timed.walls),
                   f"{_spread(timed.walls)}; wall-clock median "
                   f"{statistics.median(timed.raw_walls):.6g}"),
        "steps_per_s": (steps_per_s, _spread(timed.rates)),
        "setup_s": (statistics.median(setup) if setup else 0.0, _spread(setup)),
        "peak_rss_mb": (peak_rss_mb, "ru_maxrss of the benchmark process"),
        "energy_err_max": (timed.energy_err, f"max |H - H0| over {len(timed.walls)} episodes"),
    }
    units = dict(END_TO_END)
    for name, (value, note) in end_to_end.items():
        if args.trace and name == "setup_s":
            continue
        print(f"  {name:<16} {_fmt(value):>12} {units[name]:<5} [{backend}] {note}")
    print(f"  {'failed_share':<16} {_fmt(len(failures) / max(attempted, 1)):>12} "
          f"{'share':<5} [{backend}] {len(failures)} of {attempted} operations")
    figure5_s = 0.0
    if args.workload == "endurance":
        figure5_s = workloads.FIGURE5_STEPS / steps_per_s
        print(f"  figure5_projected_s {figure5_s:.6g} s [{backend}] information only: "
              f"{workloads.FIGURE5_STEPS} steps at this rate; the full run was not made")

    if args.trace:
        overhead = statistics.median(traced.walls) / statistics.median(timed.walls) - 1.0
        metrics = tracer.layer_metrics(overhead, figure5_s)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<36} {_fmt(value):>12} {unit:<10} [{backend}]")
        for layer, hist in tracer.newton_hist.items():
            print(f"  newton histogram ({layer}): {dict(sorted(hist.items()))}")
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        print(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = {name: (end_to_end[name][0], unit) for name, unit in END_TO_END}

    for message in failures[:20]:
        sys.stderr.write(f"perfbench: FAILED {message}\n")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
