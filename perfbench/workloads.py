"""The four benchmark workloads: seeded inputs, timed episodes and checks.

A workload draws a list of episode inputs from the seed (one "round"). Its
``episode`` does the timed work for one input, in operations timed by
``instrument.op``, and its ``check``, run outside the timed section,
verifies what the episode produced.  Episodes call symsplit through module attributes
(``integrators.integrate``, ``cli.main`` ...) so the instrument in
``instrument.py`` sees every call.

Quartic start states are drawn on the H = 1/2 level set at evenly spaced
curve parameters behind one seeded offset, so the largest energy error of
a round is close to the orbit's supremum whatever the seed.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from symsplit import cli, fastpath, integrators, verification
from symsplit.hamiltonian import MassMatrix, PhasePoint, Quadratic, Quartic, hamiltonian
from symsplit.integrators import NewtonDiverged, SchemeConfig

TAU = 0.05
EPS = float(np.finfo(float).eps)
PERIOD = verification.quartic_period()
ORDER8 = SchemeConfig("corrected_kmk", TAU, order=8)
UNIT_MASS = MassMatrix.identity(1)

# figure 5 of the paper: order 8 at tau = 0.05 over 262718 periods
FIGURE5_STEPS = math.ceil(262718.0 * PERIOD / TAU)


@dataclass
class Outcome:
    """What the checks found for one episode."""

    energy_err: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def level_set_point(theta: float) -> PhasePoint:
    """Point of p^2/2 + q^4/4 = 1/2 at curve parameter theta."""
    s = math.sin(theta)
    return PhasePoint([math.copysign((2.0 * s * s) ** 0.25, s)], [math.cos(theta)])


def level_set_round(seed: int, count: int) -> list:
    offset = np.random.default_rng(seed).random()
    return [level_set_point(2.0 * math.pi * (offset + k) / count) for k in range(count)]


def _quiet_main(argv) -> tuple:
    """cli.main in process with its stdout/stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def read_csv(path: Path) -> tuple:
    """(metadata dict, column names, rows of field strings) of a symsplit CSV."""
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, sep, value = line[2:].partition(": ")
            if sep:
                meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def _column(header, rows, name) -> np.ndarray:
    i = header.index(name)
    return np.array([float(r[i]) for r in rows])


class Workload:
    """Defaults: quartic start states, the 1-D kernel, no run-level checks."""

    name = ""
    round_size = 1

    def backend(self) -> str:
        return "numba" if fastpath.HAVE_NUMBA else "python-fallback"

    def inputs(self, seed: int) -> list:
        return level_set_round(seed, self.round_size)

    def final_checks(self, inputs, workdir) -> Outcome:
        return Outcome()


# ---------------------------------------------------------------------------
# endurance: a scaled-down figure 5 through the criterion-7 windows


class Endurance(Workload):
    name = "endurance"
    periods = 64
    round_size = 32

    def __init__(self):
        self.n_steps = math.ceil(self.periods * PERIOD / TAU)
        self.early = (1, math.ceil(10.0 * PERIOD / TAU) + 1)
        self.late = (self.n_steps - math.ceil(7.0 * PERIOD / TAU), self.n_steps + 1)

    def warmup(self, workdir: Path) -> None:
        verification.energy_deviation_maxima(
            PhasePoint([0.0], [1.0]), ORDER8, Quartic(), UNIT_MASS, 4, (1, 3), (3, 5))

    def episode(self, x0, workdir, instrument):
        with instrument.op("endurance"):
            try:
                return verification.energy_deviation_maxima(
                    x0, ORDER8, Quartic(), UNIT_MASS, self.n_steps,
                    self.early, self.late)
            except NewtonDiverged as err:
                return err

    def check(self, x0, result, workdir) -> Outcome:
        out = Outcome()
        if isinstance(result, NewtonDiverged):
            out.expect(False, f"endurance: {result}")
            return out
        early, late = result
        allowance = 2.0 * early + 500.0 * EPS * math.sqrt(self.n_steps)
        out.expect(late <= allowance,
                   f"endurance: late {late:.3e} > allowance {allowance:.3e}")
        out.energy_err = max(early, late)
        return out


# ---------------------------------------------------------------------------
# trace: full-trace CSVs through the CLI


class Trace(Workload):
    name = "trace"
    schemes = ("baseline_kmk", "corrected_kmk:8")
    periods = 16
    round_size = 16

    def warmup(self, workdir: Path) -> None:
        for scheme in self.schemes:
            _quiet_main(["run", "--scheme", scheme, "--tau", str(TAU), "--periods",
                         "0.1", "--out", str(workdir / "warmup.csv")])

    def _argv(self, x0, scheme, path):
        return ["run", "--scheme", scheme, "--tau", str(TAU),
                "--q0", repr(float(x0.q[0])), "--p0", repr(float(x0.p[0])),
                "--periods", str(self.periods), "--out", str(path)]

    def _path(self, workdir, scheme, tag=""):
        return workdir / f"trace_{scheme.replace(':', '')}{tag}.csv"

    def episode(self, x0, workdir, instrument):
        codes = []
        for scheme in self.schemes:
            with instrument.op(f"trace.{scheme}"):
                codes.append(_quiet_main(self._argv(x0, scheme, self._path(workdir, scheme))))
        return codes

    def check(self, x0, result, workdir) -> Outcome:
        out = Outcome()
        for scheme, (code, text) in zip(self.schemes, result):
            out.expect(code == 0, f"trace {scheme}: exit {code}: {text.strip()}")
            if code != 0:
                continue
            meta, header, rows = read_csv(self._path(workdir, scheme))
            q, p, h = (_column(header, rows, c) for c in ("q0", "p0", "H"))
            n_steps = int(meta["steps"])
            out.expect(len(rows) == n_steps + 1,
                       f"trace {scheme}: {len(rows)} rows for {n_steps} steps")
            recomputed = np.array([hamiltonian(PhasePoint([a], [b]), Quartic(), UNIT_MASS)
                                   for a, b in zip(q, p)])
            gap = np.abs(recomputed - h) - (1e-14 * np.abs(h) + 1e-16)
            out.expect(gap.max() <= 0.0,
                       f"trace {scheme}: H column off hamiltonian() by {gap.max():.3e}")
            out.energy_err = max(out.energy_err, float(np.abs(h - h[0]).max()))
        return out

    def final_checks(self, inputs, workdir) -> Outcome:
        """Two runs of one configuration in one process give identical bytes."""
        out = Outcome()
        x0 = inputs[0]
        for scheme in self.schemes:
            paths = [self._path(workdir, scheme, f"_repeat{k}") for k in range(2)]
            codes = [_quiet_main(self._argv(x0, scheme, path))[0] for path in paths]
            same = codes == [0, 0] and paths[0].read_bytes() == paths[1].read_bytes()
            out.expect(same, f"trace {scheme}: repeated run is not byte-identical "
                             f"(exit codes {codes})")
        return out


# ---------------------------------------------------------------------------
# figures: figure 1, figure 3 and order at the paper's inputs


class Figures(Workload):
    name = "figures"
    # criterion 5: order 8 at tau = 0.05 reproduces the period to 1e-5;
    # every other series is held to the CLI tests' 1e-2
    period_tol = {("corrected_kmk8", 0.05): 1e-5}
    default_period_tol = 1e-2
    expected_series = {"fig1_*.csv": 11, "fig3_*.csv": 3}

    def warmup(self, workdir: Path) -> None:
        x0 = PhasePoint([0.0], [1.0])
        for order in (4, 6, 8):
            cfg = SchemeConfig("corrected_kmk", TAU, order=order)
            fastpath.fast_run(x0, cfg, Quartic(), UNIT_MASS, 2)
        fastpath.fast_run(x0, SchemeConfig("baseline_kmk", TAU), Quartic(), UNIT_MASS, 2)

    def inputs(self, seed: int) -> list:
        return [None]

    def episode(self, _, workdir, instrument):
        results = {}
        for argv in (["figure", "1"], ["figure", "3"], ["order"]):
            label = " ".join(argv)
            with instrument.op(f"figures.{label}"):
                results[label] = _quiet_main(argv + ["--out", str(workdir)])
        return results

    def check(self, _, result, workdir) -> Outcome:
        out = Outcome()
        for label, (code, text) in result.items():
            out.expect(code == 0, f"{label}: exit {code}: {text.strip()}")
        exact = verification.quartic_period()
        for pattern, count in self.expected_series.items():
            files = sorted(workdir.glob(pattern))
            out.expect(len(files) == count, f"{pattern}: {len(files)} series, want {count}")
            for path in files:
                meta, header, rows = read_csv(path)
                measured = float(meta["measured_period"])
                scheme = path.stem.split("_tau")[0].split("_", 1)[1]
                tol = self.period_tol.get((scheme, float(meta["tau"])),
                                          self.default_period_tol)
                out.expect(abs(measured - exact) <= tol,
                           f"{path.name}: period {measured!r} misses {exact!r} by > {tol:g}")
                h = _column(header, rows, "H")
                out.energy_err = max(out.energy_err, float(np.abs(h - 0.5).max()))
        _, header, rows = read_csv(workdir / "orders.csv")
        out.expect(len(rows) == 4, f"orders.csv: {len(rows)} rows, want 4")
        return out


# ---------------------------------------------------------------------------
# generic: the numpy engine, 1-D fused and 4-D with an observer


@dataclass(frozen=True)
class GenericInput:
    x1: PhasePoint          # quartic start on the level set
    stiffness: np.ndarray   # 4-D SPD stiffness, top mode frequency 1
    mass: np.ndarray        # 4-D SPD non-identity mass
    x4: PhasePoint          # 4-D start, energy 1/2


def random_spd(rng, dim) -> np.ndarray:
    a = rng.normal(size=(dim, dim))
    return a @ a.T / dim + 0.5 * np.eye(dim)


def generic_problem(rng, x1, dim=4) -> GenericInput:
    mass = random_spd(rng, dim)
    stiffness = random_spd(rng, dim)
    # scale so the fastest normal mode has omega = 1: eig(M K) are omega^2
    stiffness /= float(np.linalg.eigvals(mass @ stiffness).real.max())
    x = PhasePoint(rng.normal(size=dim), rng.normal(size=dim))
    h = hamiltonian(x, Quadratic(stiffness), MassMatrix(mass))
    scale = math.sqrt(0.5 / h)
    return GenericInput(x1, stiffness, mass, PhasePoint(scale * x.q, scale * x.p))


class Generic(Workload):
    name = "generic"
    steps_1d = 20
    steps_4d = 10
    round_size = 32
    # order 8 at omega * tau <= 0.05 keeps |H - H0| at roundoff (about 1e-15)
    energy_bound_4d = 1e-12

    def backend(self) -> str:
        return "generic"

    def warmup(self, workdir: Path) -> None:
        problem = generic_problem(np.random.default_rng(0), PhasePoint([0.0], [1.0]))
        integrators.integrate(problem.x1, ORDER8, Quartic(), UNIT_MASS, 1)
        integrators.integrate(problem.x4, ORDER8, Quadratic(problem.stiffness),
                              MassMatrix(problem.mass), 1, observer=lambda *args: None)

    def inputs(self, seed: int) -> list:
        rng = np.random.default_rng([seed, 4])
        return [generic_problem(rng, x1) for x1 in level_set_round(seed, self.round_size)]

    def episode(self, problem, workdir, instrument):
        quartic = instrument.potential(Quartic())
        try:
            with instrument.op("generic.1d"):
                x1 = integrators.integrate(problem.x1, ORDER8, quartic, UNIT_MASS,
                                           self.steps_1d)
        except NewtonDiverged as err:
            return err
        pot = instrument.potential(Quadratic(problem.stiffness))
        mass = MassMatrix(problem.mass)
        h0 = hamiltonian(problem.x4, pot, mass)
        worst = [0.0]

        def observer(i, t, x, report):
            worst[0] = max(worst[0], abs(hamiltonian(x, pot, mass) - h0))

        try:
            with instrument.op("generic.4d"):
                integrators.integrate(problem.x4, ORDER8, pot, mass, self.steps_4d,
                                      observer=observer)
        except NewtonDiverged as err:
            return err
        return x1, worst[0]

    def check(self, problem, result, workdir) -> Outcome:
        out = Outcome()
        if isinstance(result, NewtonDiverged):
            out.expect(False, f"generic: {result}")
            return out
        x1, err4 = result
        fast = fastpath.fast_run(problem.x1, ORDER8, Quartic(), UNIT_MASS, self.steps_1d)
        gap = float(np.abs(fast.final.as_array() - x1.as_array()).max())
        out.expect(fast.ok and gap < 1e-13,
                   f"generic 1-D: integrate and fast_run differ by {gap:.3e}")
        out.expect(err4 <= self.energy_bound_4d,
                   f"generic 4-D: energy error {err4:.3e} > {self.energy_bound_4d:g}")
        err1 = abs(hamiltonian(x1, Quartic(), UNIT_MASS) - 0.5)
        out.energy_err = max(err1, err4)
        return out


WORKLOADS = {cls.name: cls for cls in (Endurance, Trace, Figures, Generic)}
