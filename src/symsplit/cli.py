"""Command-line front end: run experiments, emit figure and order tables.

Subcommands
    run     integrate one configuration and write a trace CSV
    figure  reproduce one of the five benchmark figures as CSV series
    order   measure convergence orders and write orders.csv
    sweep   run a scheme x tau grid concurrently, one trace per entry

Exit codes: 0 success, 1 a refused input (any bad configuration, a
duration or step size that gives more steps than int64 holds, or a run
too large for memory), reported by ``main`` as one ``error:`` line,
2 implicit solve divergence or a state that became non-finite (the
partial trace is kept, with a ``# truncated`` footer), 3 measured order
outside tolerance (``order`` command only).

All CSVs start with a ``#`` metadata block (scheme, tau, potential, code
version, config hash) and use 17-significant-digit floats, so identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__, fastpath
from .hamiltonian import (
    Harmonic,
    MassMatrix,
    PhasePoint,
    Quadratic,
    Quartic,
    hamiltonian,
)
from .integrators import SCHEME_USAGE, NewtonDiverged, NonFiniteState, SchemeConfig
from .verification import (
    _window_steps,
    measure_convergence_order,
    measure_period,
    quartic_period,
    reference_solution,
    step_count,
)

TRACE_COLUMNS = "step,time,{q},{p},H,scaledH,newton_iters,newton_residual"

# caption windows in units of the scheme's own measured period
FIGURE_WINDOWS = {
    1: (15.5, 16.0),
    2: (15.5, 16.0),
    3: (256.0, 256.5),
    4: (4103.5, 4104.0),
    5: (262717.5, 262718.0),
}
# the schemes of figure 1, and of order and sweep without --schemes
DEFAULT_SCHEMES = ("baseline_kmk", "corrected_kmk:4", "corrected_kmk:6",
                   "corrected_kmk:8")
FIGURE_SCHEMES = {
    1: DEFAULT_SCHEMES,
    2: ["baseline_kmk"],
    3: ["corrected_kmk:4"],
    4: ["corrected_kmk:6"],
    5: ["corrected_kmk:8"],
}
DEFAULT_TAUS = (0.2, 0.1, 0.05)


class ConfigError(ValueError):
    """Bad configuration; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; 2 is taken, so reroute
    def error(self, message):
        raise ConfigError(f"{self.format_usage()}error: {message}")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")])
    except ValueError:
        raise ConfigError(f"cannot parse vector {text!r}; expected comma-separated floats")


def _parse_bounds(text: str, what: str, shape: str):
    """Two finite numbers from A:B; the messages name ``what`` and ``shape``."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"{what} must look like {shape}, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        lo = hi = math.nan
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{what} bounds must be finite numbers, got {text!r}")
    return lo, hi


def _parse_window(text: str):
    lo, hi = _parse_bounds(text, "window", "START:END")
    if hi < lo:
        raise ConfigError("window end before start")
    return lo, hi


def _parse_pair(text: str):
    coarse, fine = _parse_bounds(text, "tau pair", "COARSE:FINE")
    if not coarse > fine > 0:
        raise ConfigError("tau pair must be COARSE:FINE with coarse > fine > 0")
    return coarse, fine


def _read_input(path: str, what: str) -> tuple:
    """(bytes, lines of the text ``read_text`` gives) of ``path``, else a ConfigError."""
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err.strerror or err}") from None
    return data, io.TextIOWrapper(io.BytesIO(data)).read().split("\n")


def _load_matrix(path: str) -> tuple:
    """(matrix, 12-digit sha256 of the bytes) of line N, then N rows of N entries."""
    data, lines = _read_input(path, "matrix")
    try:
        n = int(lines[0].strip())
    except (ValueError, IndexError):
        raise ConfigError(f"{path}: first line must be the matrix size N")
    if n < 1:
        raise ConfigError(f"{path}: the matrix size N must be at least 1, got {n}")
    # np.loadtxt warns on a body with no entries
    if not any(line.split("#", 1)[0].strip() for line in lines[1:]):
        raise ConfigError(f"{path}: expected {n}x{n} entries, got none")
    try:
        mat = np.loadtxt(lines[1:], ndmin=2)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}")
    if mat.shape != (n, n):
        raise ConfigError(f"{path}: expected {n}x{n} entries, got {mat.shape}")
    return mat, hashlib.sha256(data).hexdigest()[:12]


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully merged run configuration (flags over config file)."""

    potential: str = "quartic"
    omega: float | None = None
    k_file: tuple | None = None  # _load_matrix's (matrix, digest)
    m_file: tuple | None = None
    scheme: str = "corrected_kmk:8"
    tau: float = 0.05
    q0: np.ndarray | None = None
    p0: np.ndarray | None = None
    periods: float | None = None
    t_final: float | None = None
    window: tuple | None = None
    newton_tol: float = 1e-13
    newton_max_iter: int = 25

    def build(self):
        cfg = SchemeConfig.parse(self.scheme, self.tau, newton_tol=self.newton_tol,
                                 newton_max_iter=self.newton_max_iter)
        potential, default_x0, kdim = self._potential()
        x0 = self._initial_state(default_x0, kdim)
        mass = self._mass(x0.dim)
        return x0, cfg, potential, mass

    def _potential(self):
        name = self.potential
        if self.omega is not None and name != "harmonic":
            raise ConfigError("omega only applies to the harmonic potential")
        if name == "quartic":
            return Quartic(), (np.array([0.0]), np.array([1.0])), None
        if name == "harmonic":
            pot = Harmonic(1.0 if self.omega is None else self.omega)
            return pot, (np.array([1.0]), np.array([0.0])), None
        if name == "quadratic":
            if self.k_file is None:
                raise ConfigError("quadratic potential needs --k-file")
            k = self.k_file[0]
            return Quadratic(k), None, k.shape[0]
        raise ConfigError(
            f"unknown potential {name!r}; choose from quartic, harmonic, quadratic"
        )

    def _initial_state(self, default_x0, kdim):
        if (self.q0 is None) != (self.p0 is None):
            raise ConfigError("give both --q0 and --p0 or neither")
        if self.q0 is None:
            if default_x0 is None:
                raise ConfigError("quadratic potential needs explicit --q0 and --p0")
            q, p = default_x0
        else:
            q, p = self.q0, self.p0
        x0 = PhasePoint(q, p)
        if kdim is not None and x0.dim != kdim:
            raise ConfigError(
                f"initial state has dimension {x0.dim}, stiffness is {kdim}x{kdim}"
            )
        return x0

    def _mass(self, dim):
        if self.m_file is None:
            return MassMatrix.identity(dim)
        m = self.m_file[0]
        if m.shape[0] != dim:
            raise ConfigError(f"mass is {m.shape[0]}x{m.shape[1]}, state dimension {dim}")
        return MassMatrix(m)

    def duration(self, x0, potential, mass) -> float:
        """The run's length; ``periods`` counts periods of x0's own orbit."""
        if (self.periods is None) == (self.t_final is None):
            raise ConfigError("set exactly one of --periods / --t-final")
        if self.t_final is not None:
            if self.t_final <= 0:
                raise ConfigError("t-final must be positive")
            return self.t_final
        if self.periods <= 0:
            raise ConfigError("periods must be positive")
        if self.potential == "quadratic":
            raise ConfigError("a quadratic potential has no single period; use --t-final")
        # the period at unit mass, scaled by m^(-1/2) for a mass m I
        lam = mass.mat[0, 0]
        if self.potential == "harmonic" and not np.array_equal(mass.mat, lam * np.eye(mass.dim)):
            raise ConfigError("a harmonic potential under a mass with unequal "
                              "eigenvalues has no single period; use --t-final")
        # before the energy, which a zero mass makes 0 from any start
        if lam == 0.0:
            raise ConfigError("a zero mass has no period; use --t-final")
        if self.potential == "harmonic":
            base = 2.0 * math.pi / potential.omega
        else:
            # V = q^4/4 scales its period as (2H)^(-1/4)
            energy = hamiltonian(x0, potential, mass)
            if energy == 0.0:
                raise ConfigError("a quartic start at rest has no period; use --t-final")
            base = quartic_period() * (2.0 * energy) ** -0.25
        return self.periods * base / math.sqrt(lam)

    def describe(self):
        """Stable key/value pairs for the metadata block and config hash."""
        pairs = [
            ("scheme", self.scheme),
            ("tau", _fmt(self.tau)),
            ("potential", self.potential),
        ]
        if self.omega is not None:
            pairs.append(("omega", _fmt(self.omega)))
        for key, matrix in (("k_matrix", self.k_file), ("m_matrix", self.m_file)):
            if matrix is not None:
                pairs.append((key, matrix[1]))
        if self.q0 is not None:
            pairs.append(("q0", ",".join(_fmt(v) for v in self.q0)))
            pairs.append(("p0", ",".join(_fmt(v) for v in self.p0)))
        if self.periods is not None:
            pairs.append(("periods", _fmt(self.periods)))
        if self.t_final is not None:
            pairs.append(("t_final", _fmt(self.t_final)))
        if self.window is not None:
            pairs.append(("window", f"{_fmt(self.window[0])}:{_fmt(self.window[1])}"))
        pairs.append(("newton_tol", _fmt(self.newton_tol)))
        pairs.append(("newton_max_iter", str(self.newton_max_iter)))
        return pairs


def config_hash(pairs) -> str:
    blob = "\n".join(f"{k}={v}" for k, v in pairs)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def read_config_file(path: str) -> dict:
    """key = value lines; '#' comments and blank lines ignored."""
    _, lines = _read_input(path, "config")
    known = {f.name for f in fields(ExperimentConfig)} | {"out"}
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _scalar(kind, key):
    noun = "an integer" if kind is int else "a finite number"

    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be {noun}, got {text!r}")
        return value

    return parse


_PARSERS = {
    **{key: _scalar(float, key)
       for key in ("omega", "tau", "periods", "t_final", "newton_tol")},
    "newton_max_iter": _scalar(int, "newton_max_iter"),
    "q0": _parse_vector,
    "p0": _parse_vector,
    "window": _parse_window,
    **dict.fromkeys(("k_file", "m_file"), _load_matrix),
}


def merge_config(args, file_values: dict) -> tuple:
    """Flags win over file values; returns (ExperimentConfig, out value)."""

    # the duration is one input: a flag displaces the file's one duration
    # key; a file that sets both still fails in ExperimentConfig.duration
    duration = [key for key in ("periods", "t_final") if key in file_values]
    if len(duration) == 1 and any(getattr(args, key, None) is not None
                                  for key in ("periods", "t_final")):
        file_values = {k: v for k, v in file_values.items() if k not in duration}

    def pick(key):
        flag = getattr(args, key, None)
        return flag if flag is not None else file_values.get(key)

    raw = {f.name: pick(f.name) for f in fields(ExperimentConfig)}
    # each matrix file is read once, below, and only where the potential reads it
    if raw["k_file"] is not None and raw["potential"] != "quadratic":
        raise ConfigError("k_file only applies to the quadratic potential")
    for key, parse in _PARSERS.items():
        if raw[key] is not None:
            raw[key] = parse(raw[key])
    if raw["periods"] is None and raw["t_final"] is None:
        raw["periods"] = 16.0
    out = getattr(args, "out", None)
    if out is None:
        out = file_values.get("out")
    # unset keys take the dataclass defaults
    return ExperimentConfig(**{k: v for k, v in raw.items() if v is not None}), out


def default_out_dir() -> Path:
    return Path(os.environ.get("SYMSPLIT_OUT", "."))


def _trace_rows(x0, cfg, potential, mass, n_steps, first, last):
    """Rows (step, t, q, p, H, scaled, iters, res) for first <= step <= last.

    Returns (rows, failure): one array with a row per recorded step, and the
    run's ``NewtonDiverged`` / ``NonFiniteState`` or None.  After a failure
    the rows hold the surviving prefix of the requested window.
    """
    run = fastpath.simulate(x0, cfg, potential, mass, n_steps,
                            rec_range=(first, last + 1))
    steps = first + np.arange(len(run.rec_h))
    scaled = (run.rec_h - run.h0) / cfg.tau**cfg.order
    rows = np.column_stack((steps, steps * cfg.tau, run.rec_q, run.rec_p, run.rec_h,
                            scaled, run.rec_iters, run.rec_res))
    return rows, run.failure


def _write_csv(path: Path, meta, header: str, *chunks) -> None:
    """The ``#`` metadata block with its config hash and the header, then
    each bytes-like chunk as it is, whole newline-terminated lines.  A path
    that cannot be written is a ``ConfigError``.

    The file is opened in binary mode, so the bytes are the same on every
    platform, and no chunk is copied.
    """
    block = [f"# symsplit {__version__}", *(f"# {key}: {value}" for key, value in meta),
             f"# config_hash: {config_hash(meta)}", header, ""]
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as out:
            out.write("\n".join(block).encode())
            for chunk in chunks:
                out.write(chunk)
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err}") from None


def write_trace(path: Path, meta, dim: int, rows, truncated=None) -> None:
    """Trace CSV of ``_trace_rows`` rows; ``truncated`` is the footer's reason."""
    qcols = ",".join(f"q{i}" for i in range(dim))
    pcols = ",".join(f"p{i}" for i in range(dim))
    # step and newton_iters are integers
    body = fastpath.format_rows(rows, (0, 2 * dim + 4))
    footer = () if truncated is None else (f"# truncated: {truncated}\n".encode(),)
    _write_csv(path, meta, TRACE_COLUMNS.format(q=qcols, p=pcols), body, *footer)


def _failure_reason(failure) -> str:
    if isinstance(failure, NonFiniteState):
        return f"state became non-finite at step {failure.step_index}"
    return (f"implicit solve diverged at step {failure.step_index}, "
            f"residual {failure.residual:.3e}")


def execute_run(exp: ExperimentConfig, out_path: Path, extra_meta=()) -> int:
    x0, cfg, potential, mass = exp.build()
    t_final = exp.duration(x0, potential, mass)
    n_steps = step_count(t_final, cfg.tau)
    if exp.window is None:
        first, last = 0, n_steps
    else:
        first, last = _window_steps(exp.window, cfg.tau, n_steps)
        if first > last:
            lo, hi = exp.window
            raise ConfigError(f"window {_fmt(lo)}:{_fmt(hi)} holds no step of the "
                              f"run, which spans t = 0 to {_fmt(n_steps * cfg.tau)}")
    try:
        rows, failure = _trace_rows(x0, cfg, potential, mass, n_steps, first, last)
    except MemoryError:
        raise ConfigError(f"a trace of steps {first} to {last} does not fit in memory; "
                          f"record fewer with --window") from None
    meta = list(extra_meta) + exp.describe() + [("steps", str(n_steps))]
    reason = None if failure is None else _failure_reason(failure)
    write_trace(out_path, meta, x0.dim, rows, truncated=reason)
    if reason is not None:
        sys.stderr.write(f"{reason}; partial trace kept in {out_path}\n")
        return 2
    return 0


def cmd_run(args) -> int:
    file_values = read_config_file(args.config) if args.config else {}
    exp, out = merge_config(args, file_values)
    out_path = Path(out) if out else default_out_dir() / "trace.csv"
    if out_path.is_dir():
        out_path = out_path / "trace.csv"
    return execute_run(exp, out_path)


def cmd_figure(args) -> int:
    n = args.number
    if n == 5 and not args.long:
        sys.stderr.write(
            "figure 5 spans 262718 periods (about 3e7 steps at tau=0.05); "
            "pass --long to confirm the run\n"
        )
        return 1
    taus = args.tau_list if args.tau_list else list(DEFAULT_TAUS)
    out_dir = Path(args.out) if args.out else default_out_dir()
    lo, hi = FIGURE_WINDOWS[n]
    x0, potential, mass = PhasePoint([0.0], [1.0]), Quartic(), MassMatrix.identity(1)
    worst = 0
    for label in FIGURE_SCHEMES[n]:
        for tau in taus:
            cfg = SchemeConfig.parse(label, tau)
            if n == 1 and cfg.name == "baseline_kmk" and abs(tau - 0.2) < 1e-12:
                # the source figure drops this series as off-scale
                continue
            try:
                period = measure_period(x0, cfg, potential, mass, 8.0 * quartic_period())
            except (NewtonDiverged, NonFiniteState) as err:
                sys.stderr.write(f"{cfg.name} tau={tau:g}: period measurement failed: {err}\n")
                worst = 2
                continue
            exp = ExperimentConfig(scheme=label, tau=tau, t_final=hi * period,
                                   window=(lo * period, hi * period))
            name = f"fig{n}_{cfg.name}_tau{tau:g}.csv"
            extra = [("figure", str(n)),
                     ("window_periods", f"{_fmt(lo)}:{_fmt(hi)}"),
                     ("measured_period", _fmt(period))]
            worst = max(worst, execute_run(exp, out_dir / name, extra_meta=extra))
    return worst


def cmd_order(args) -> int:
    labels = args.schemes.split(",") if args.schemes else DEFAULT_SCHEMES
    tau_pair = _parse_pair(args.tau_pair) if args.tau_pair else (0.2, 0.1)
    t_final = 5.0 if args.t_final is None else _scalar(float, "t_final")(args.t_final)
    if not t_final > 0:
        raise ConfigError(f"t_final must be positive, got {t_final:g}")
    out_dir = Path(args.out) if args.out else default_out_dir()
    schemes = {}
    for label in labels:
        cfg = SchemeConfig.parse(label, tau_pair[0])
        if cfg.variant == "exact_quadratic":
            raise ConfigError("exact_quadratic has no convergence order to measure")
        if cfg.name in schemes:
            raise ConfigError(f"schemes {schemes[cfg.name][0]!r} and {label!r} "
                              f"both name {cfg.name}")
        schemes[cfg.name] = label, cfg
    x0 = PhasePoint([0.0], [1.0])
    potential = Quartic()
    mass = MassMatrix.identity(1)
    rows = []
    all_good = True
    ref = None
    for name, (_, cfg) in schemes.items():
        try:
            # one reference serves every scheme
            if ref is None:
                ref = reference_solution(x0, potential, mass, t_final)
            report = measure_convergence_order(
                x0, potential, mass, cfg.variant, cfg.order, tau_pair, t_final, reference=ref)
        except (NewtonDiverged, NonFiniteState) as err:
            sys.stderr.write(f"{name}: {err}\n")
            return 2
        ok = abs(report.measured_order - cfg.order) <= 0.8
        all_good = all_good and ok
        rows.append((name, report))
        print(f"{name}: measured order {report.measured_order:.3f} (nominal {cfg.order})"
              f"{'' if ok else '  MISMATCH'}")
    meta = [
        ("scheme", ",".join(label for label, _ in rows)),
        ("tau", f"{_fmt(tau_pair[0])}:{_fmt(tau_pair[1])}"),
        ("potential", "quartic"),
        ("t_final", _fmt(t_final)),
    ]
    body = "".join(",".join((label, _fmt(report.tau_coarse), _fmt(report.tau_fine),
                             _fmt(report.error_fine), _fmt(report.measured_order))) + "\n"
                   for label, report in rows)
    _write_csv(out_dir / "orders.csv", meta,
               "scheme,tau_coarse,tau_fine,error_norm,measured_order", body.encode())
    return 0 if all_good else 3


def _sweep_entry(payload):
    exp, out_path = payload
    return _refused(execute_run, exp, Path(out_path)), str(out_path)


def cmd_sweep(args) -> int:
    file_values = read_config_file(args.config) if args.config else {}
    for key in ("scheme", "tau"):
        # every grid entry sets its own scheme and tau
        if key in file_values:
            raise ConfigError(f"{args.config}: sweep takes no {key!r} key; "
                              f"use --schemes and --tau-list")
    base, out = merge_config(args, file_values)
    # what every grid entry shares is checked once, before any pool starts
    x0, _, potential, mass = base.build()
    base.duration(x0, potential, mass)
    labels = args.schemes.split(",") if args.schemes else DEFAULT_SCHEMES
    taus = args.tau_list if args.tau_list else list(DEFAULT_TAUS)
    out_dir = Path(out) if out else default_out_dir()
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    entries = {}
    for label in labels:
        for tau in taus:
            # validated before any pool starts
            path = str(out_dir / f"sweep_{SchemeConfig.parse(label, tau).name}_tau{tau:g}.csv")
            if path in entries:
                raise ConfigError(f"schemes {entries[path][0].scheme!r} and {label!r} "
                                  f"at tau {tau:g} would both write {path}")
            entries[path] = (replace(base, scheme=label, tau=tau), path)
    entries = list(entries.values())
    # the pool starts all its workers at once; never more than there is work
    jobs = min(jobs, len(entries))
    if jobs == 1:
        results = [_sweep_entry(entry) for entry in entries]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_entry, entries))
    codes = [code for code, _ in results]
    for (code, path) in results:
        print(f"{'ok' if code == 0 else f'exit {code}'}: {path}")
    if 1 in codes:
        return 1
    if 2 in codes:
        return 2
    return 0


def _tau_list(text: str):
    try:
        taus = [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse tau list {text!r}")
    if not all(math.isfinite(tau) and tau > 0 for tau in taus):
        raise argparse.ArgumentTypeError(
            f"tau values must be positive and finite, got {text!r}")
    # each series' file is named by its tau's %g text
    if len({f"{tau:g}" for tau in taus}) < len(taus):
        raise argparse.ArgumentTypeError(
            f"tau values must differ in their %g text, which names each file, got {text!r}")
    return taus


@cache
def build_parser() -> _Parser:
    """The one parser of the process, built on first use: parsing leaves it
    as it was, and help and error text are formatted when they are printed."""
    parser = _Parser(prog="symsplit",
                     description="corrected splitting schemes for separable "
                                 "Hamiltonian systems")
    parser.add_argument("--version", action="version",
                        version=f"symsplit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_physics(p):
        # values stay text here; merge_config converts flags and file values alike
        p.add_argument("--potential", help="quartic, harmonic or quadratic")
        p.add_argument("--omega", help="harmonic frequency")
        p.add_argument("--k-file", help="stiffness matrix file (N header + rows)")
        p.add_argument("--m-file", help="mass matrix file (same format)")
        p.add_argument("--q0", help="comma-separated")
        p.add_argument("--p0", help="comma-separated")
        p.add_argument("--periods", help="duration in periods")
        p.add_argument("--t-final", help="duration in time units")
        p.add_argument("--window", help="record only times in START:END")
        p.add_argument("--newton-tol")
        p.add_argument("--newton-max-iter")
        p.add_argument("--config", help="key = value file; flags win")
        p.add_argument("--out", help="output file (run) or directory")

    run_p = sub.add_parser("run", help="integrate once and write trace.csv")
    scheme = run_p.add_mutually_exclusive_group()
    scheme.add_argument("--scheme", help=SCHEME_USAGE)
    scheme.add_argument("--order", dest="scheme", type="corrected_kmk:{}".format,
                        metavar="N", help="shorthand for --scheme corrected_kmk:N")
    run_p.add_argument("--tau", help="timestep")
    add_physics(run_p)
    run_p.set_defaults(handler=cmd_run)

    fig_p = sub.add_parser("figure", help="reproduce a benchmark figure")
    fig_p.add_argument("number", type=int, choices=(1, 2, 3, 4, 5))
    fig_p.add_argument("--tau-list", type=_tau_list, help="comma-separated")
    fig_p.add_argument("--out", help="output directory")
    fig_p.add_argument("--long", action="store_true",
                       help="allow the 262718-period figure 5 run")
    fig_p.set_defaults(handler=cmd_figure)

    ord_p = sub.add_parser("order", help="measure convergence orders")
    ord_p.add_argument("--schemes", help="comma-separated scheme labels")
    ord_p.add_argument("--tau-pair", help="COARSE:FINE, default 0.2:0.1")
    ord_p.add_argument("--t-final", help="default 5.0")
    ord_p.add_argument("--out", help="output directory")
    ord_p.set_defaults(handler=cmd_order)

    sweep_p = sub.add_parser("sweep", help="scheme x tau grid, one CSV each")
    add_physics(sweep_p)
    sweep_p.add_argument("--schemes", help="comma-separated scheme labels")
    sweep_p.add_argument("--tau-list", type=_tau_list, help="comma-separated")
    sweep_p.add_argument("--jobs", type=int,
                         help="parallel workers (default: CPU count, "
                              "capped at the grid size)")
    sweep_p.set_defaults(handler=cmd_sweep)
    return parser


def _refused(run, *args) -> int:
    """``run(*args)``, or 1 after one ``error:`` line if it raises a
    ``ValueError`` (a refused input) or a ``MemoryError``."""
    try:
        return run(*args)
    except ValueError as err:
        reason = str(err)
    except MemoryError as err:
        # a bare MemoryError has no text
        reason = "the run does not fit in memory" + (f": {err}" if str(err) else "")
    sys.stderr.write(f"error: {reason}\n")
    return 1


def _handle(argv) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


def main(argv=None) -> int:
    return _refused(_handle, argv)


if __name__ == "__main__":
    sys.exit(main())
