"""Command-line harness: argument handling, CSV contract, exit codes."""
import argparse
import concurrent.futures
import hashlib
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import needs_c, never_agreeing
from symsplit import fastpath
from symsplit.cli import (
    ExperimentConfig,
    _trace_rows,
    build_parser,
    main,
    merge_config,
    read_config_file,
    write_trace,
)
from symsplit.integrators import SchemeConfig
from symsplit.verification import measure_period


def _lines(path):
    return path.read_text().splitlines()


def _data_rows(path):
    return [ln for ln in _lines(path) if not ln.startswith("#")][1:]


def _meta(path):
    out = {}
    for ln in _lines(path):
        if ln.startswith("# ") and ": " in ln:
            key, _, value = ln[2:].partition(": ")
            out[key] = value
    return out


# ---------------------------------------------------------------------------
# scheme label parsing


def test_parse_scheme():
    assert SchemeConfig.parse("baseline_kmk", 0.1).order == 2
    assert SchemeConfig.parse("corrected_kmk", 0.1).order == 8
    assert SchemeConfig.parse("corrected_kmk:4", 0.1).order == 4
    assert SchemeConfig.parse("corrected_kmk:6", 0.1).name == "corrected_kmk6"
    assert SchemeConfig.parse("baseline_mkm", 0.1).name == "baseline_mkm"
    with pytest.raises(ValueError):
        SchemeConfig.parse("corrected_kmk:5", 0.1)
    with pytest.raises(ValueError):
        SchemeConfig.parse("baseline_kmk:4", 0.1)
    with pytest.raises(ValueError):
        SchemeConfig.parse("rk4", 0.1)


# ---------------------------------------------------------------------------
# run


def test_run_writes_trace(tmp_path):
    out = tmp_path / "trace.csv"
    rc = main(["run", "--scheme", "corrected_kmk:8", "--tau", "0.05",
               "--periods", "2", "--out", str(out)])
    assert rc == 0
    lines = _lines(out)
    assert lines[0].startswith("# symsplit ")
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "step,time,q0,p0,H,scaledH,newton_iters,newton_residual"
    meta = _meta(out)
    assert meta["scheme"] == "corrected_kmk:8"
    assert meta["potential"] == "quartic"
    assert "config_hash" in meta and len(meta["config_hash"]) == 12

    rows = _data_rows(out)
    first = rows[0].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0
    energies = np.array([float(r.split(",")[4]) for r in rows])
    assert np.abs(energies - 0.5).max() < 1e-10


def test_run_is_byte_deterministic(tmp_path):
    args = ["run", "--scheme", "corrected_kmk:6", "--tau", "0.1",
            "--periods", "1"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_default_output_heeds_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SYMSPLIT_OUT", str(tmp_path))
    rc = main(["run", "--tau", "0.1", "--periods", "0.5"])
    assert rc == 0
    assert (tmp_path / "trace.csv").exists()


def test_run_window_restricts_rows(tmp_path):
    out = tmp_path / "w.csv"
    rc = main(["run", "--scheme", "baseline_kmk", "--tau", "0.2",
               "--t-final", "4.0", "--window", "1.0:2.0", "--out", str(out)])
    assert rc == 0
    times = [float(r.split(",")[1]) for r in _data_rows(out)]
    assert times[0] == pytest.approx(1.0) and times[-1] == pytest.approx(2.0)
    assert len(times) == 6


# argparse on its own takes each of these values for an unknown flag
@pytest.mark.parametrize("flags, rc, message", [
    (["--q0", "-1e-3", "--p0", "1", "--periods", "0.5"], 0, ""),
    (["--potential", "harmonic", "--q0", "-0.5,0.1", "--p0", "0.2,0.3", "--periods", "1"],
     0, ""),
    (["--window", "-5:-1"], 1, "error: window -5:-1 holds no step of the run"),
], ids=["exponent", "vector", "window"])
def test_a_value_may_start_with_a_minus(flags, rc, message, tmp_path, capsys):
    assert main(["run", *flags, "--out", str(tmp_path / "trace.csv")]) == rc
    err = capsys.readouterr().err
    assert (_one_error_line(err) if rc else err).startswith(message), err
    assert (tmp_path / "trace.csv").exists() == (rc == 0)


def test_run_harmonic_with_explicit_state(tmp_path):
    out = tmp_path / "h.csv"
    rc = main(["run", "--potential", "harmonic", "--scheme", "exact_quadratic",
               "--tau", "0.1", "--periods", "1", "--q0", "1,0", "--p0", "0,1",
               "--out", str(out)])
    assert rc == 0
    header = [ln for ln in _lines(out) if not ln.startswith("#")][0]
    assert header == "step,time,q0,q1,p0,p1,H,scaledH,newton_iters,newton_residual"
    energies = np.array([float(r.split(",")[6]) for r in _data_rows(out)])
    assert np.abs(energies - energies[0]).max() < 1e-13


def test_run_order_shorthand(tmp_path):
    out = tmp_path / "o.csv"
    rc = main(["run", "--order", "6", "--tau", "0.1", "--periods", "0.5",
               "--out", str(out)])
    assert rc == 0
    assert _meta(out)["scheme"] == "corrected_kmk:6"


def test_run_config_errors(tmp_path, capsys):
    cases = [
        ["run", "--tau", "0", "--periods", "1"],
        ["run", "--tau", "0.1", "--periods", "1", "--scheme", "rk4"],
        ["run", "--tau", "0.1", "--periods", "1", "--t-final", "2"],
        ["run", "--tau", "0.1", "--periods", "1", "--omega", "2"],
        ["run", "--tau", "0.1", "--periods", "1", "--q0", "1"],
        ["run", "--potential", "quadratic", "--tau", "0.1", "--t-final", "1"],
        ["run", "--tau", "0.1", "--periods", "1", "--scheme",
         "exact_quadratic"],
        ["run", "--tau", "0.1", "--periods", "1", "--order", "3"],
        ["run", "--tau", "0.1", "--periods", "1", "--scheme", "baseline_kmk",
         "--order", "4"],
        ["run", "--no-such-flag"],
        # non-finite values are rejected, not carried into a traceback
        ["run", "--t-final", "nan"],
        ["run", "--periods", "inf"],
        ["run", "--window", "0:inf"],
        ["run", "--q0", "nan", "--p0", "1"],
        ["order", "--t-final", "inf", "--out", str(tmp_path)],
        ["order", "--t-final", "nan", "--out", str(tmp_path)],
        ["order", "--t-final", "0", "--out", str(tmp_path)],
        ["order", "--tau-pair", "inf:0.1", "--out", str(tmp_path)],
        ["order", "--tau-pair", "0.1:nan", "--out", str(tmp_path)],
        # both taus round to two steps over the default t_final = 5
        ["order", "--tau-pair", "3:2.5", "--out", str(tmp_path)],
    ]
    for argv in cases:
        assert main(argv) == 1, argv
        assert "error" in capsys.readouterr().err.lower(), argv
    # a window that holds no step of the run writes nothing
    for window in ("100:200", "-5:-1"):
        out = tmp_path / "empty.csv"
        assert main(["run", "--periods", "1", f"--window={window}",
                     "--out", str(out)]) == 1, window
        assert f"window {window} holds no step" in capsys.readouterr().err
        assert not out.exists(), window


def test_bad_values_name_themselves(tmp_path, capsys):
    cfg = tmp_path / "values.cfg"
    # a flag and a config-file line with the same text fail the same way
    for key, text, message in (
        ("window", "5:1", "window end before start"),
        ("q0", "abc", "cannot parse vector 'abc'"),
    ):
        cfg.write_text(f"{key} = {text}\n")
        errors = []
        for argv in (["run", f"--{key}", text], ["run", "--config", str(cfg)]):
            assert main(argv) == 1, argv
            errors.append(capsys.readouterr().err)
        assert message in errors[0]
        assert errors[0] == errors[1]
    for tau_list in ("-0.1", "0.1,0", "nan", "0.1,inf"):
        argv = ["figure", "3", "--tau-list", tau_list, "--out", str(tmp_path)]
        assert main(argv) == 1, tau_list
        err = capsys.readouterr().err
        assert "tau values must be positive and finite" in err, tau_list
    assert not list(tmp_path.glob("*.csv"))


def test_non_finite_inputs_write_nothing(tmp_path, capsys):
    files = {"kinf.mat": "1\ninf\n", "knan.mat": "2\n1 nan\nnan 1\n",
             "mnan.mat": "1\nnan\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "trace.csv"
    cases = [
        (["--potential", "harmonic", "--omega", "1e200"],
         "omega must be positive with a finite square, got 1e+200"),
        (["--potential", "quadratic", "--k-file", str(tmp_path / "kinf.mat"),
          "--q0", "1", "--p0", "0", "--t-final", "1"],
         "stiffness contains non-finite entries"),
        (["--potential", "quadratic", "--k-file", str(tmp_path / "knan.mat"),
          "--q0", "1,0", "--p0", "0,1", "--t-final", "1"],
         "stiffness contains non-finite entries"),
        (["--m-file", str(tmp_path / "mnan.mat")],
         "mass matrix contains non-finite entries"),
    ]
    for flags, message in cases:
        assert main(["run", *flags, "--out", str(out)]) == 1, flags
        assert f"error: {message}\n" == capsys.readouterr().err, flags
    assert not list(tmp_path.glob("*.csv"))


def test_overflowing_kernel_tables_write_nothing(tmp_path, capsys):
    (tmp_path / "kbig.mat").write_text("1\n1e200\n")
    out = tmp_path / "trace.csv"
    for flags in (["--potential", "harmonic", "--omega", "1e100"],
                  ["--potential", "quadratic", "--k-file", str(tmp_path / "kbig.mat"),
                   "--q0", "1", "--p0", "0", "--t-final", "1"]):
        assert main(["run", *flags, "--out", str(out)]) == 1, flags
        assert capsys.readouterr().err == (
            "error: the order-8 kernel tables of this potential and mass "
            "overflow the float range\n"), flags
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv, written", [
    (["run", "--periods", "1", "--out", "{blocker}/trace.csv"], "trace.csv"),
    (["figure", "3", "--tau-list", "0.1", "--out", "{blocker}"],
     "fig3_corrected_kmk4_tau0.1.csv"),
    (["sweep", "--schemes", "baseline_kmk", "--tau-list", "0.1", "--periods", "1",
      "--jobs", "1", "--out", "{blocker}"], "sweep_baseline_kmk_tau0.1.csv"),
    (["order", "--schemes", "baseline_kmk", "--out", "{blocker}"], "orders.csv"),
], ids=["run", "figure", "sweep", "order"])
def test_unwritable_output_is_a_config_error(argv, written, tmp_path, capsys):
    # the output directory would have to be created where a file stands
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    assert main([arg.format(blocker=blocker) for arg in argv]) == 1
    assert f"error: cannot write {blocker / written}: " in capsys.readouterr().err
    assert blocker.read_text() == "not a directory\n"


def test_resonant_exact_step_writes_nothing(tmp_path, capsys):
    # omega * tau = pi: the modified spring constant tan(x/2) blows up
    out = tmp_path / "trace.csv"
    assert main(["run", "--potential", "harmonic", "--scheme", "exact_quadratic",
                 "--tau", "3.141592653589793", "--out", str(out)]) == 1
    assert "within 1e-8 of an odd multiple of pi" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_run_divergence_keeps_partial_trace(tmp_path, capsys):
    out = tmp_path / "d.csv"
    rc = main(["run", "--scheme", "corrected_kmk:8", "--tau", "3.0",
               "--t-final", "30", "--out", str(out)])
    assert rc == 2
    assert "diverged" in capsys.readouterr().err
    lines = _lines(out)
    assert lines[-1].startswith("# truncated: implicit solve diverged at step")
    assert len(_data_rows(out)) >= 1


@pytest.mark.parametrize("scheme", ["baseline_kmk", "baseline_mkm", "corrected_kmk:2"])
def test_run_blowup_keeps_partial_trace(scheme, tmp_path, capsys):
    # an explicit scheme at tau = 3 overflows at step 6 (q ~ 3e76 at step 5)
    out = tmp_path / "b.csv"
    rc = main(["run", "--scheme", scheme, "--tau", "3", "--periods", "40",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "state became non-finite at step 6; partial trace kept" in err
    assert "diverged" not in err
    assert _lines(out)[-1] == "# truncated: state became non-finite at step 6"
    assert [int(row[0]) for row in _data_rows(out)] == list(range(6))


@pytest.mark.parametrize("order, tau, n_steps, first, last, failed_step", [
    (2, 0.1, 30, 5, 20, None),
    (4, 0.1, 30, 5, 20, None),
    (6, 0.1, 30, 0, 20, None),
    (8, 3.0, 10, 0, 10, 3),
    (6, 0.05, 200, 0, 200, None),
    (8, 0.05, 200, 0, 200, None),
])
def test_trace_rows_paths_agree(order, tau, n_steps, first, last, failed_step,
                                quartic, opaque_quartic, mass1, x_unit):
    cfg = SchemeConfig("corrected_kmk", tau, order=order)
    fast, fast_fail = _trace_rows(x_unit, cfg, quartic, mass1, n_steps,
                                  first, last)
    slow, slow_fail = _trace_rows(x_unit, cfg, opaque_quartic, mass1, n_steps,
                                  first, last)
    steps = [fail.step_index if fail else None for fail in (fast_fail, slow_fail)]
    assert steps == [failed_step, failed_step]
    if failed_step:
        # both spend the whole iteration budget on the failing step
        assert fast_fail.iterations == slow_fail.iterations
    assert fast.shape == slow.shape and len(fast) > 0
    # step and t exactly; q, p, H to roundoff
    np.testing.assert_array_equal(fast[:, [0, 1]], slow[:, [0, 1]])
    np.testing.assert_allclose(fast[:, 2:5], slow[:, 2:5], rtol=1e-12, atol=1e-13)
    # the iterations exactly: both engines start Newton from the last two
    # increments (P = p at step 1 and at order 2, whose increments are 0),
    # so at tau = 0.05 they agree at every step.  At tau >= 0.1 the generic
    # engine's one-sided Jacobian still moves a few steps by one iteration
    # against the kernel's exact derivative, so there only steps 0 and 1
    # and order 2 are compared
    same = (fast[:, 0] <= 1) | (order == 2) | (tau <= 0.05)
    np.testing.assert_array_equal(fast[same, 6], slow[same, 6])


def test_run_config_file_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment\n"
        "scheme = baseline_kmk\n"
        "tau = 0.2\n"
        "periods = 1\n"
        f"out = {tmp_path / 'from_file.csv'}\n"
    )
    rc = main(["run", "--config", str(cfg), "--tau", "0.1"])
    assert rc == 0
    meta = _meta(tmp_path / "from_file.csv")
    assert meta["scheme"] == "baseline_kmk"
    assert float(meta["tau"]) == 0.1


def test_config_file_validation(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("tau: 0.1\n")
    with pytest.raises(ValueError, match="key = value"):
        read_config_file(str(bad))
    bad.write_text("steps = 10\n")
    with pytest.raises(ValueError, match="unknown config key"):
        read_config_file(str(bad))
    with pytest.raises(ValueError, match="not found"):
        read_config_file(str(tmp_path / "missing.cfg"))


def test_matrix_file_run(tmp_path):
    kf = tmp_path / "K.mat"
    kf.write_text("2\n1.0 0.0\n0.0 4.0\n")
    mf = tmp_path / "M.mat"
    mf.write_text("2\n1.0 0.0\n0.0 1.0\n")
    out = tmp_path / "q.csv"
    rc = main(["run", "--potential", "quadratic", "--k-file", str(kf),
               "--m-file", str(mf), "--scheme", "exact_quadratic",
               "--tau", "0.1", "--t-final", "5", "--q0", "1,0", "--p0", "0,1",
               "--out", str(out)])
    assert rc == 0
    meta = _meta(out)
    assert len(meta["k_matrix"]) == 12  # content hash, not the path
    energies = np.array([float(r.split(",")[6]) for r in _data_rows(out)])
    assert np.abs(energies - energies[0]).max() < 1e-13


def test_matrix_file_errors(tmp_path, capsys):
    kf = tmp_path / "bad.mat"
    kf.write_text("x\n1.0\n")
    argv = ["run", "--potential", "quadratic", "--k-file", str(kf),
            "--tau", "0.1", "--t-final", "1", "--q0", "1", "--p0", "0"]
    assert main(argv) == 1
    kf.write_text("2\n1.0 0.0\n")
    assert main(argv) == 1
    kf.write_text("2\n1.0 0.0\n0.0 4.0\n")
    # state dimension disagrees with the matrix
    assert main(argv) == 1
    capsys.readouterr()


def test_each_config_error_names_itself_and_writes_nothing(tmp_path, capsys):
    (tmp_path / "k1.mat").write_text("1\n4.0\n")
    (tmp_path / "ragged.mat").write_text("2\n1.0 0.0\n4.0\n")
    (tmp_path / "m2.mat").write_text("2\n1.0 0.0\n0.0 1.0\n")
    missing, ragged = tmp_path / "missing.mat", tmp_path / "ragged.mat"
    newton_cfg = tmp_path / "newton.cfg"
    newton_cfg.write_text("newton_tol = 1e-10\n")
    out = tmp_path / "out"
    quadratic = ["--potential", "quadratic", "--k-file", str(tmp_path / "k1.mat")]
    cases = [
        (["run", "--window", "1:2:3"], "window must look like START:END, got '1:2:3'"),
        (["run", "--window", "a:b"], "window bounds must be finite numbers, got 'a:b'"),
        (["run", "--potential", "quadratic", "--k-file", str(missing), "--q0", "1",
          "--p0", "0", "--t-final", "1"], f"matrix file not found: {missing}"),
        (["run", "--potential", "quadratic", "--k-file", str(ragged), "--q0", "1,0",
          "--p0", "0,1", "--t-final", "1"], f"{ragged}: the number of columns changed"),
        (["run", "--scheme", "corrected_kmk:x"], "bad order 'x' in 'corrected_kmk:x'; "),
        (["run", "--potential", "cubic"],
         "unknown potential 'cubic'; choose from quartic, harmonic, quadratic"),
        (["run", *quadratic, "--t-final", "1"],
         "quadratic potential needs explicit --q0 and --p0"),
        (["run", "--m-file", str(tmp_path / "m2.mat")], "mass is 2x2, state dimension 1"),
        (["run", "--t-final", "0"], "t-final must be positive"),
        (["run", "--t-final", "-1"], "t-final must be positive"),
        (["run", "--periods", "0"], "periods must be positive"),
        (["run", *quadratic, "--q0", "1", "--p0", "0", "--periods", "1"],
         "a quadratic potential has no single period; use --t-final"),
        (["figure", "3", "--tau-list", "0.1,x"], "cannot parse tau list '0.1,x'"),
        # tau**order, which scales the energy error, overflows a double
        (["run", "--tau", "1e50", "--periods", "1"],
         "tau = 1e+50 is too large for order 8: tau**8 overflows a double"),
        (["run", "--scheme", "baseline_kmk", "--tau", "1e200", "--periods", "1"],
         "tau = 1e+200 is too large for order 2: tau**2 overflows a double"),
        (["run", "--potential", "quadratic", "--k-file", str(tmp_path / "m2.mat"), "--q0",
          "1,0", "--p0", "0,1", "--t-final", "1", "--tau", "1e50"],
         "tau = 1e+50 is too large for order 8"),
        (["sweep", "--tau-list", "1e50", "--schemes", "corrected_kmk:8"],
         "tau = 1e+50 is too large for order 8"),
        # and below a normal double it would make every scaledH nan or inf
        (["run", "--tau", "1e-50", "--t-final", "1e-49"],
         "tau = 1e-50 is too small for order 8: tau**8 underflows a double"),
        (["order", "--t-final", "0"], "t_final must be positive, got 0"),
        # an energy of inf would make the period 0 and scaledH nan
        (["run", "--q0", "1e100", "--p0", "1", "--periods", "1"],
         "the start state's energy overflows a double (H0 = inf)"),
        (["run", "--q0", "1e100", "--p0", "1", "--t-final", "1"],
         "the start state's energy overflows a double (H0 = inf)"),
        # the pair is refused before the reference, whose own first step
        # would underflow and name a tau the caller never gave
        (["order", "--t-final", "1e-300"],
         "tau pair 0.2:0.1 rounds to one step size over t_final = 1e-300; use a wider pair"),
        # the Newton tolerance and iteration cap are part of the method
        (["run", "--newton-tol", "1e-10"], "unrecognized arguments: --newton-tol 1e-10"),
        (["sweep", "--newton-max-iter", "5"], "unrecognized arguments: --newton-max-iter 5"),
        (["run", "--config", str(newton_cfg)], "unknown config key 'newton_tol'"),
    ]
    for argv, message in cases:
        assert main([*argv, "--out", str(out / "trace.csv" if argv[0] == "run" else out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, argv
        assert err.count("\n") == 1, argv
        assert not out.exists(), argv


def _one_error_line(err):
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("argv, message", [
    (["run", "--no-such-flag"],
     "error: unrecognized arguments: --no-such-flag; see symsplit run --help\n"),
    (["run", "--q0"], "error: argument --q0: expected one argument; see symsplit run --help\n"),
    (["figure", "6"], "error: argument number: invalid choice: 6 (choose from 1, 2, 3, 4, 5); "
                      "see symsplit figure --help\n"),
], ids=["unknown-flag", "missing-value", "bad-choice"])
def test_an_argparse_refusal_is_one_error_line(argv, message, capsys):
    # argparse would print its usage block first; the refusal names the
    # command's help instead
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, _one_error_line(err)) == ("", message)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_config_from_a_pipe(tmp_path, capsys):
    # the shell's --config <(...) hands over a pipe, not a regular file
    fifo = tmp_path / "cfg"
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "w") as pipe:
                pipe.write("periods = 1\ntau = 0.1\n")
        except OSError:
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    out = tmp_path / "trace.csv"
    rc = main(["run", "--config", str(fifo), "--out", str(out)])
    if writer.is_alive():
        # nothing read the pipe: open and close it so the writer ends
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
    writer.join(5)
    assert not writer.is_alive()
    assert rc == 0, capsys.readouterr().err
    assert _meta(out)["periods"] == "1" and float(_meta(out)["tau"]) == 0.1


@pytest.mark.parametrize("flags, message", [
    (["--config", "{d}"], "cannot read {d}: Is a directory"),
    (["--potential", "quadratic", "--k-file", "{d}", "--q0", "1", "--p0", "0"],
     "cannot read {d}: Is a directory"),
], ids=["config", "k-file"])
def test_a_directory_is_not_an_input_file(flags, message, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main(["run", *(f.format(d=tmp_path) for f in flags), "--out", str(out)]) == 1
    assert message.format(d=tmp_path) in _one_error_line(capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--config", "--k-file"])
def test_an_unreadable_input_file_is_refused(flag, tmp_path, capsys):
    path = tmp_path / "input"
    path.write_text("1\n4.0\n")
    out = tmp_path / "trace.csv"
    argv = ["run", flag, str(path), "--out", str(out)]
    if flag == "--k-file":
        argv += ["--potential", "quadratic", "--q0", "1", "--p0", "0"]
    denied = PermissionError(13, "Permission denied", str(path))
    with mock.patch.object(Path, "read_bytes", side_effect=denied):
        assert main(argv) == 1
    err = _one_error_line(capsys.readouterr().err)
    assert f"error: cannot read {path}: Permission denied\n" == err
    assert not out.exists()


# a warning (numpy's on an empty body) fails the test, so none goes to stderr
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags", [
    ["--potential", "quadratic", "--k-file", "{mat}", "--q0", "1,0", "--p0", "0,0"],
    ["--m-file", "{mat}"],
], ids=["k-file", "m-file"])
def test_a_matrix_without_entries_is_refused(flags, tmp_path, capsys):
    mat, out = tmp_path / "empty.mat", tmp_path / "trace.csv"
    for text, message in (("2\n", f"{mat}: expected 2x2 entries, got none"),
                          ("0\n", f"{mat}: the matrix size N must be at least 1, got 0")):
        mat.write_text(text)
        argv = ["run", *(f.format(mat=mat) for f in flags), "--t-final", "1"]
        assert main([*argv, "--out", str(out)]) == 1, text
        assert _one_error_line(capsys.readouterr().err) == f"error: {message}\n"
        assert not out.exists()


_K_TEXT, _M_TEXT = "2\n2.0 0.5\n0.5 1.0\n", "2\n1.0 0.2\n0.2 0.8\n"
_QUADRATIC = ["--potential", "quadratic", "--k-file", "{src}/K.mat", "--m-file",
              "{src}/M.mat", "--q0", "0.3,-0.1", "--p0", "0.2,0.4", "--t-final", "2"]
_SWEEP_FOUR = ["sweep", "--schemes", "baseline_kmk,corrected_kmk:4", "--tau-list",
               "0.2,0.1", "--out", "{out}"]


@pytest.mark.parametrize("argv", [
    ["run", "--out", "{out}/trace.csv"],
    [*_SWEEP_FOUR, "--jobs", "1"],
], ids=["run", "sweep"])
def test_each_matrix_file_is_read_once(argv, tmp_path, monkeypatch, capsys):
    (tmp_path / "K.mat").write_text(_K_TEXT)
    (tmp_path / "M.mat").write_text(_M_TEXT)
    opened = []
    real_open = Path.open

    def counting_open(self, *args, **kwargs):
        opened.append(self.name)
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    out = tmp_path / "out"
    assert main([arg.format(src=tmp_path, out=out) for arg in [*argv, *_QUADRATIC]]) == 0
    capsys.readouterr()
    # the sweep's four entries share the one read
    assert (opened.count("K.mat"), opened.count("M.mat")) == (1, 1)


def _feed(fifo, text):
    """A thread that writes text into the named pipe fifo once a reader opens it."""
    def feed():
        try:
            with open(fifo, "w") as pipe:
                pipe.write(text)
        except OSError:
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    return writer


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("argv", [
    ["run", "--out", "{out}/trace.csv"],
    [*_SWEEP_FOUR, "--jobs", "1"],
    [*_SWEEP_FOUR, "--jobs", "2"],
], ids=["run", "sweep-jobs-1", "sweep-jobs-2"])
def test_matrices_from_pipes_write_the_files_bytes(argv, tmp_path, capsys):
    # the shell's --k-file <(...) hands over a pipe, which can be read once
    written = {}
    for kind in ("file", "pipe"):
        src, out = tmp_path / f"{kind}-in", tmp_path / f"{kind}-out"
        src.mkdir()
        writers = []
        for name, text in (("K.mat", _K_TEXT), ("M.mat", _M_TEXT)):
            if kind == "file":
                (src / name).write_text(text)
            else:
                os.mkfifo(src / name)
                writers.append((src / name, _feed(src / name, text)))
        rc = main([arg.format(src=src, out=out) for arg in [*argv, *_QUADRATIC]])
        for fifo, writer in writers:
            if writer.is_alive():
                # nothing read the pipe: open and close it so the writer ends
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(5)
            assert not writer.is_alive()
        assert rc == 0, capsys.readouterr().err
        written[kind] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert written["pipe"] == written["file"]
    assert len(written["file"]) == (1 if argv[0] == "run" else 4)
    for name in written["file"]:
        meta = _meta(tmp_path / "pipe-out" / name)
        assert (meta["k_matrix"], meta["m_matrix"]) == tuple(
            hashlib.sha256(text.encode()).hexdigest()[:12] for text in (_K_TEXT, _M_TEXT))
    capsys.readouterr()


@pytest.mark.parametrize("argv, m_file", [
    # V = q^2/2 under a mass of 4: period pi, half the unit-mass one
    (["--potential", "harmonic", "--scheme", "exact_quadratic"], "1\n4.0\n"),
    # H = 2 on the quartic: period 2^(-1/2) of the H = 1/2 one
    (["--q0", "0", "--p0", "2"], None),
])
def test_periods_count_the_start_states_own_orbit(argv, m_file, tmp_path):
    if m_file is not None:
        (tmp_path / "m.mat").write_text(m_file)
        argv = [*argv, "--m-file", str(tmp_path / "m.mat")]
    args = build_parser().parse_args(["run", *argv, "--tau", "0.01", "--periods", "1"])
    exp, _ = merge_config(args, {})
    x0, _, potential, mass = exp.build()
    measured = measure_period(x0, SchemeConfig("corrected_kmk", 0.01), potential, mass, 25.0)
    assert exp.duration(x0, potential, mass) == pytest.approx(measured, rel=1e-12)
    out = tmp_path / "trace.csv"
    assert main(["run", *argv, "--tau", "0.01", "--periods", "1", "--out", str(out)]) == 0
    assert _meta(out)["steps"] == str(math.ceil(measured / 0.01))


def test_orbits_without_one_period_are_refused(tmp_path, capsys):
    (tmp_path / "m2.mat").write_text("2\n1.0 0.0\n0.0 4.0\n")
    (tmp_path / "m0.mat").write_text("1\n0.0\n")
    out = tmp_path / "trace.csv"
    cases = [
        (["--potential", "harmonic", "--m-file", str(tmp_path / "m2.mat"),
          "--q0", "1,0", "--p0", "0,1"],
         "a harmonic potential under a mass with unequal eigenvalues has no single "
         "period; use --t-final"),
        (["--q0", "0", "--p0", "0"], "a quartic start at rest has no period; use --t-final"),
        (["--m-file", str(tmp_path / "m0.mat"), "--q0", "1", "--p0", "0"],
         "a zero mass has no period; use --t-final"),
        (["--potential", "harmonic", "--m-file", str(tmp_path / "m0.mat")],
         "a zero mass has no period; use --t-final"),
        # the quartic's default start (0, 1) moves, though its energy is 0
        (["--m-file", str(tmp_path / "m0.mat")], "a zero mass has no period; use --t-final"),
    ]
    for argv, message in cases:
        assert main(["run", *argv, "--periods", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n", argv
        assert not out.exists(), argv
        # a duration in time units runs
        assert main(["run", *argv, "--t-final", "0.1", "--out", str(out)]) == 0
        out.unlink()


def test_a_trace_too_large_to_allocate_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main(["run", "--periods", "1e14", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a trace of steps 0 to ") and "--window" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["figure", "1", "--tau-list", "1e-100"],
     "t = 49.8907 at tau = 1e-100 is 4.98907e+101 steps; at most 2**63 - 1 can run"),
    (["figure", "1", "--tau-list", "1e-300"],
     "tau = 1e-300 is too small for order 2: tau**2 underflows a double"),
    # 8 periods at 1e-15 would record 1.7 EiB, more than any address space
    (["figure", "1", "--tau-list", "1e-15"], "the run does not fit in memory: "),
    (["run", "--t-final", "1e308", "--tau", "1e-10"],
     "t = 1e+308 at tau = 1e-10 is inf steps; at most 2**63 - 1 can run"),
    # the reference's own starting step is no input, so the message names
    # only t_final
    (["order", "--t-final", "1e308"],
     "a reference solution to t = 1e+308 would take more than 2**63 - 1 steps"),
], ids=["figure-steps", "figure-underflow", "figure-memory", "run", "order"])
def test_a_run_too_long_to_take_is_one_error_line(argv, message, tmp_path):
    # in a child process, so a traceback would show on its stderr
    proc = subprocess.run([sys.executable, "-m", "symsplit.cli", *argv, "--out",
                           str(tmp_path / "out")], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {message}")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not list(tmp_path.rglob("*.csv"))


def test_a_sweep_entry_too_long_to_take_exits_1(tmp_path, capsys):
    rc = main(["sweep", "--jobs", "1", "--t-final", "1e308", "--tau-list", "1e-10",
               "--schemes", "baseline_kmk", "--out", str(tmp_path)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == f"exit 1: {tmp_path / 'sweep_baseline_kmk_tau1e-10.csv'}\n"
    assert err == "error: t = 1e+308 at tau = 1e-10 is inf steps; at most 2**63 - 1 can run\n"
    assert not list(tmp_path.iterdir())


def test_a_window_past_the_run_records_the_whole_run(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["run", "--window", "0:1e308", "--tau", "0.1", "--periods", "1",
                 "--out", str(out)]) == 0
    steps = int(_meta(out)["steps"])
    assert [int(row.split(",")[0]) for row in _data_rows(out)] == list(range(steps + 1))


def test_a_window_starting_past_the_run_holds_no_step(tmp_path, capsys):
    # the start is clipped to the run before it is rounded, so no step count
    # of the window itself is refused
    out = tmp_path / "trace.csv"
    assert main(["run", "--window", "1e308:1e308", "--tau", "1e-10", "--periods", "1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: window 1e+308:1e+308 holds no step of the run, "
                          "which spans t = 0 to "), err
    assert err.count("\n") == 1
    assert not out.exists()


def test_run_out_may_name_a_directory(tmp_path):
    assert main(["run", "--tau", "0.1", "--periods", "0.5", "--out", str(tmp_path)]) == 0
    assert [path.name for path in tmp_path.iterdir()] == ["trace.csv"]
    assert _meta(tmp_path / "trace.csv")["scheme"] == "corrected_kmk:8"


def test_harmonic_run_records_its_omega(tmp_path):
    out = tmp_path / "h.csv"
    assert main(["run", "--potential", "harmonic", "--omega", "2.5",
                 "--scheme", "baseline_kmk", "--tau", "0.1", "--periods", "1",
                 "--out", str(out)]) == 0
    assert "# omega: 2.5" in _lines(out)
    # one period is 2 pi / 2.5 = 2.51, so 26 steps of 0.1 and 27 rows
    assert _meta(out)["steps"] == "26" and len(_data_rows(out)) == 27


# ---------------------------------------------------------------------------
# figure


def test_figure_three_single_tau(tmp_path):
    rc = main(["figure", "3", "--tau-list", "0.1", "--out", str(tmp_path)])
    assert rc == 0
    files = list(tmp_path.glob("fig3_*.csv"))
    assert len(files) == 1
    meta = _meta(files[0])
    assert meta["figure"] == "3"
    assert meta["window_periods"] == "256:256.5"
    assert float(meta["measured_period"]) == pytest.approx(6.2363, abs=1e-2)
    times = [float(r.split(",")[1]) for r in _data_rows(files[0])]
    period = float(meta["measured_period"])
    assert times[0] >= 256.0 * period - 1e-9
    assert times[-1] <= 256.5 * period + 1e-9


def test_figure_one_emits_eleven_series(tmp_path):
    rc = main(["figure", "1", "--out", str(tmp_path)])
    assert rc == 0
    files = sorted(tmp_path.glob("fig1_*.csv"))
    assert len(files) == 11
    # the off-scale baseline series at the coarse step is dropped
    assert not (tmp_path / "fig1_baseline_kmk_tau0.2.csv").exists()


def test_figure_five_requires_confirmation(tmp_path, capsys):
    rc = main(["figure", "5", "--out", str(tmp_path)])
    assert rc == 1
    assert "--long" in _one_error_line(capsys.readouterr().err)
    assert list(tmp_path.glob("*.csv")) == []


# ---------------------------------------------------------------------------
# order


def test_order_single_scheme(tmp_path, capsys):
    rc = main(["order", "--schemes", "baseline_kmk", "--tau-pair", "0.2:0.1",
               "--out", str(tmp_path)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "baseline_kmk: measured order" in printed
    lines = _lines(tmp_path / "orders.csv")
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "scheme,tau_coarse,tau_fine,error_norm,measured_order"
    row = lines[-1].split(",")
    assert row[0] == "baseline_kmk"
    assert abs(float(row[4]) - 2.0) < 0.4


def test_order_refuses_a_reference_that_never_converges(tmp_path, capsys):
    with mock.patch.object(fastpath, "simulate", never_agreeing):
        assert main(["order", "--t-final", "1", "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert _one_error_line(err).startswith("error: reference solution did not converge to 1e-13")
    assert not list(tmp_path.iterdir())


def test_order_rejects_exact_scheme(tmp_path, capsys):
    rc = main(["order", "--schemes", "exact_quadratic", "--out", str(tmp_path)])
    assert rc == 1
    assert "no convergence order" in capsys.readouterr().err
    with pytest.raises(ValueError):
        from symsplit.cli import _parse_pair
        _parse_pair("0.1:0.2")


def test_order_and_figure_report_divergence(tmp_path, capsys):
    rc = main(["order", "--schemes", "corrected_kmk:4", "--tau-pair", "2.5:1.25",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "corrected_kmk4: implicit move solve stalled" in capsys.readouterr().err
    assert not (tmp_path / "orders.csv").exists()
    rc = main(["order", "--schemes", "baseline_kmk", "--tau-pair", "3:1.5",
               "--t-final", "30", "--out", str(tmp_path)])
    assert rc == 2
    assert "baseline_kmk: state became non-finite" in capsys.readouterr().err
    # a failed period measurement skips its series; the others are written
    rc = main(["figure", "3", "--tau-list", "3,0.2", "--out", str(tmp_path)])
    assert rc == 2
    assert "corrected_kmk4 tau=3: period measurement failed" in capsys.readouterr().err
    assert [f.name for f in tmp_path.glob("*.csv")] == ["fig3_corrected_kmk4_tau0.2.csv"]


def test_order_refuses_a_repeated_scheme(tmp_path, capsys):
    # plain corrected_kmk is corrected_kmk:8
    rc = main(["order", "--schemes", "baseline_kmk,corrected_kmk,corrected_kmk:8",
               "--out", str(tmp_path)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: schemes 'corrected_kmk' and 'corrected_kmk:8' "
                   "both name corrected_kmk8\n")
    assert not (tmp_path / "orders.csv").exists()


def test_order_measures_every_scheme_against_one_reference(tmp_path, monkeypatch,
                                                           capsys):
    import symsplit.cli as cli
    import symsplit.verification as verification

    original = verification.reference_solution
    t_finals = []

    def counting(x0, potential, mass, t_final, *args, **kwargs):
        t_finals.append(t_final)
        return original(x0, potential, mass, t_final, *args, **kwargs)

    # every module binding of the function, as perfbench's tracer finds them
    for module in (cli, verification):
        monkeypatch.setattr(module, "reference_solution", counting, raising=False)
    assert main(["order", "--out", str(tmp_path)]) == 0
    assert len(_data_rows(tmp_path / "orders.csv")) == 4
    assert t_finals == [5.0]
    t_finals.clear()
    rc, digest = _pinned_run("order", tmp_path)
    capsys.readouterr()
    assert (rc, digest, t_finals) == (0, _PINNED_SHA256["order"], [5.0])


# ---------------------------------------------------------------------------
# sweep


def test_sweep_grid(tmp_path, capsys):
    rc = main(["sweep", "--schemes", "baseline_kmk,corrected_kmk:4",
               "--tau-list", "0.2,0.1", "--periods", "1",
               "--jobs", "2", "--out", str(tmp_path)])
    assert rc == 0
    files = sorted(tmp_path.glob("sweep_*.csv"))
    assert [f.name for f in files] == [
        "sweep_baseline_kmk_tau0.1.csv",
        "sweep_baseline_kmk_tau0.2.csv",
        "sweep_corrected_kmk4_tau0.1.csv",
        "sweep_corrected_kmk4_tau0.2.csv",
    ]
    assert capsys.readouterr().out.count("ok:") == 4


def test_sweep_reports_divergence(tmp_path, capsys):
    rc = main(["sweep", "--schemes", "corrected_kmk:8",
               "--tau-list", "0.1,3.0", "--t-final", "30",
               "--jobs", "1", "--out", str(tmp_path)])
    assert rc == 2
    out = capsys.readouterr().out
    assert "exit 2" in out and "ok:" in out


def test_sweep_rejects_bad_jobs(tmp_path, capsys):
    for jobs in ("0", "-1"):
        rc = main(["sweep", "--schemes", "baseline_kmk", "--tau-list", "0.1",
                   "--periods", "1", "--jobs", jobs, "--out", str(tmp_path)])
        assert rc == 1, jobs
        assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("jobs", [["--jobs", "64"], []])
def test_sweep_pool_never_exceeds_grid(jobs, tmp_path, monkeypatch, capsys):
    """The pool is sized to the grid; the fake pool starts no process."""
    import symsplit.cli as cli

    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    rc = main(["sweep", "--schemes", "baseline_kmk", "--tau-list", "0.2,0.1",
               "--periods", "1", "--out", str(tmp_path)] + jobs)
    assert rc == 0
    assert sizes == [2]
    assert capsys.readouterr().out.count("ok:") == 2


def test_sweep_checks_its_shared_config_once(tmp_path, monkeypatch, capsys):
    """A bad input that every grid entry shares is one error, before any pool."""
    class NoPool:
        def __init__(self, max_workers):
            raise AssertionError("the pool started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    rc = main(["sweep", "--potential", "cubic", "--schemes", "baseline_kmk,corrected_kmk:4",
               "--tau-list", "0.1,0.2", "--jobs", "2", "--out", str(tmp_path)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: unknown potential 'cubic'; "
                   "choose from quartic, harmonic, quadratic\n")
    assert not list(tmp_path.rglob("*.csv"))


def test_sweep_takes_no_run_only_flags(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    flags = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
    assert {"--schemes", "--tau-list"} <= flags
    assert not flags & {"--scheme", "--order", "--tau"}


def test_sweep_scheme_and_tau_select_one_entry(tmp_path, capsys):
    # argparse reads them as prefixes of --schemes and --tau-list
    assert main(["sweep", "--scheme", "baseline_mkm", "--tau", "0.1", "--periods", "1",
                 "--jobs", "1", "--out", str(tmp_path)]) == 0
    assert [path.name for path in tmp_path.iterdir()] == ["sweep_baseline_mkm_tau0.1.csv"]
    meta = _meta(tmp_path / "sweep_baseline_mkm_tau0.1.csv")
    assert (meta["scheme"], meta["tau"]) == ("baseline_mkm", "0.10000000000000001")
    assert capsys.readouterr().out.count("ok:") == 1


# ---------------------------------------------------------------------------
# inputs a run would ignore or override are refused


_SWEEP_ONE = ["sweep", "--schemes", "baseline_kmk", "--tau-list", "0.1", "--periods", "1",
              "--jobs", "1"]


@pytest.mark.parametrize("argv, config, message", [
    (["run", "--scheme", "corrected_kmk:4", "--order", "6"], None,
     "argument --order: not allowed with argument --scheme"),
    (["sweep", "--order", "4"], None, "unrecognized arguments: --order 4"),
    (_SWEEP_ONE, "tau = 0.3\n", "sweep takes no 'tau' key; use --schemes and --tau-list"),
    (_SWEEP_ONE, "scheme = baseline_mkm\n", "sweep takes no 'scheme' key"),
    (["run", "--potential", "quadratic", "--k-file", "{out}/K.mat", "--omega", "3",
      "--q0", "1", "--p0", "0", "--t-final", "1"], None,
     "omega only applies to the harmonic potential"),
    (["run", "--k-file", "{out}/K.mat"], None,
     "k_file only applies to the quadratic potential"),
    # the file it names is never read
    (["run", "--k-file", "{out}/missing.mat"], None,
     "k_file only applies to the quadratic potential"),
    (["sweep", "--schemes", "corrected_kmk,corrected_kmk:8", "--tau-list", "0.1",
      "--periods", "1", "--jobs", "2"], None,
     "schemes 'corrected_kmk' and 'corrected_kmk:8' at tau 0.1 would both write "
     "{out}/sweep_corrected_kmk8_tau0.1.csv"),
    (["sweep", "--schemes", "baseline_kmk", "--tau-list", "0.1,0.1000001",
      "--periods", "1", "--jobs", "1"], None,
     "tau values must differ in their %g text, which names each file, "
     "got '0.1,0.1000001'"),
    (["figure", "3", "--tau-list", "0.1,0.1"], None, "tau values must differ"),
    # a flag displaces the file's duration, not a file that already sets two
    (["run", "--periods", "1"], "periods = 1\nt_final = 5\n",
     "set exactly one of --periods / --t-final"),
], ids=["order-and-scheme", "sweep-order", "sweep-tau-key", "sweep-scheme-key",
        "omega-on-quadratic", "k-file-on-quartic", "missing-k-file-on-quartic",
        "sweep-same-scheme-twice", "sweep-same-tau-text", "figure-same-tau",
        "file-sets-both-durations"])
def test_unread_inputs_are_refused(argv, config, message, tmp_path, capsys):
    (tmp_path / "K.mat").write_text("1\n4.0\n")
    if config is not None:
        (tmp_path / "exp.cfg").write_text(config)
        argv = [*argv, "--config", str(tmp_path / "exp.cfg")]
    out = tmp_path / "trace.csv" if argv[0] == "run" else tmp_path
    assert main([arg.format(out=tmp_path) for arg in argv] + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message.format(out=tmp_path) in err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("file_key, flag, kept", [
    ("t_final", "--periods", "periods"),
    ("periods", "--t-final", "t_final"),
])
def test_duration_flag_displaces_the_files(file_key, flag, kept, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"tau = 0.1\n{file_key} = 5\n")
    out = tmp_path / "trace.csv"
    assert main(["run", "--config", str(cfg), flag, "1", "--out", str(out)]) == 0
    meta = _meta(out)
    assert meta[kept] == "1" and file_key not in meta


# ---------------------------------------------------------------------------
# console entry point


def test_console_script_end_to_end(tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "symsplit.cli", "run", "--tau", "0.1",
         "--periods", "0.5", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_cli_import_loads_no_process_pool():
    # only sweep with more than one job imports the pool
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, symsplit.cli; print(sorted(name for name in "
         "sys.modules if name.startswith(('concurrent', 'multiprocessing'))))"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_package_root_loads_no_module():
    # every name is imported from its module; the root holds only __version__
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, symsplit; print(sorted(name for name in "
         "sys.modules if name.startswith('symsplit.')), [name for name in "
         "vars(symsplit) if not name.startswith('_')], '__version__' in vars(symsplit))"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] [] True\n"


# ---------------------------------------------------------------------------
# pinned CSV bytes

# sha256 of the file each command writes.  A change to the stepping,
# recording or formatting code must leave these bytes alone; "{out}" is
# the test's output directory, where it also writes K.mat and M.mat.
_PINNED_RUNS = {
    "run-defaults": (["run", "--out", "{out}/trace.csv"], 0, "trace.csv"),
    "run-mkm": (["run", "--scheme", "baseline_mkm", "--periods", "2",
                 "--out", "{out}/trace.csv"], 0, "trace.csv"),
    "run-diverged": (["run", "--scheme", "corrected_kmk:8", "--tau", "3",
                      "--periods", "4", "--out", "{out}/trace.csv"], 2, "trace.csv"),
    "run-non-finite": (["run", "--scheme", "baseline_kmk", "--tau", "3",
                        "--periods", "40", "--out", "{out}/trace.csv"], 2, "trace.csv"),
    "run-window": (["run", "--window", "10:12", "--out", "{out}/trace.csv"],
                   0, "trace.csv"),
    "run-quadratic-2d": (["run", "--potential", "quadratic", "--k-file", "{out}/K.mat",
                          "--m-file", "{out}/M.mat", "--scheme", "corrected_kmk:8",
                          "--tau", "0.1", "--t-final", "2", "--window", "0.5:1.5",
                          "--q0", "0.3,-0.1", "--p0", "0.2,0.4",
                          "--out", "{out}/trace.csv"], 0, "trace.csv"),
    "figure-3": (["figure", "3", "--tau-list", "0.1", "--out", "{out}"],
                 0, "fig3_corrected_kmk4_tau0.1.csv"),
    "order": (["order", "--schemes", "baseline_kmk,corrected_kmk:4", "--out", "{out}"],
              0, "orders.csv"),
}
_PINNED_SHA256 = {
    "figure-3":
        "3e568449fc5e6c636ef3f6cc7149d207ec99c548be812241341393e112c1744f",
    "order":
        "b39203beaff9eb1e6336c3a895c3b69aef9783902703c52839070cbe054d4904",
    "run-defaults":
        "fbd9d230392ebf7a73296cea67a1d857af70387e952172de6c50588c50cd1d51",
    "run-diverged":
        "c1501f766520c9076badf9dfe69d2dd3cc4b73c610693cd12a54302da5ab7f8f",
    "run-mkm":
        "4eb0a8d0440de31542b607953a51c6c2baa17c0bc5705f03d4fa5f3771785e2e",
    "run-non-finite":
        "a48312d995a85e4d721fe4a56e6da9acfe6b1627ce53cc9b50e7764acd0ac2a0",
    "run-quadratic-2d":
        "bcc0d01ed27e27db8f96317c9f76516a83f3f0115551d00a58f63fc41fa36f6f",
    "run-window":
        "5186556de60607d47c11c132d3c21df104933b10d4a74ca1a909658329b674ee",
}


# sha256 of each CSV of figures 2 and 4, the paper's baseline and order-6
# windows; figure 4 at its coarsest step only
_FIGURE_RUNS = {
    2: (["figure", "2"], {
        "fig2_baseline_kmk_tau0.05.csv":
            "50284313f58081b670f902a2b9bdaf9d8d3f2a658abb1b8ea21531585dcb66a2",
        "fig2_baseline_kmk_tau0.1.csv":
            "7f5875b70618f4f125fcdfc3f04e2668222a3764d3c4d1b23614e22b89d9ad55",
        "fig2_baseline_kmk_tau0.2.csv":
            "b6dcf337e7b22599104b845911e1a279383a2cc9da627d634f509e2e2e905ce1",
    }),
    4: (["figure", "4", "--tau-list", "0.2"], {
        "fig4_corrected_kmk6_tau0.2.csv":
            "1700676f58e6fa7d2f9040199389fc041c93adac1957290a83c2b2878d382628",
    }),
}


def _pinned_run(name, out_dir):
    """Run one pinned command into out_dir; returns (exit code, sha256)."""
    argv, _, written = _PINNED_RUNS[name]
    (out_dir / "K.mat").write_text("2\n2.0 0.5\n0.5 1.0\n")
    (out_dir / "M.mat").write_text("2\n1.0 0.2\n0.2 0.8\n")
    rc = main([arg.format(out=out_dir) for arg in argv])
    return rc, hashlib.sha256((out_dir / written).read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(_PINNED_RUNS))
def test_csv_bytes_are_pinned(name, tmp_path, capsys):
    rc, digest = _pinned_run(name, tmp_path)
    capsys.readouterr()
    assert (rc, digest) == (_PINNED_RUNS[name][1], _PINNED_SHA256[name])


def _fresh_parser_outcome(argv, capsys):
    """(exit code, stdout, stderr) of ``main``'s parse with a parser built
    for this call alone."""
    try:
        build_parser.__wrapped__().parse_args(argv)
    except ValueError as err:
        return 1, "", f"error: {err}\n"
    except SystemExit as done:
        return done.code, capsys.readouterr().out, ""
    raise AssertionError(f"{argv} parsed")


def test_main_reuses_one_parser(tmp_path, capsys):
    failing = [
        ["run", "--no-such-flag"],
        ["figure", "3", "--tau-list", "0.1,nan", "--out", str(tmp_path)],
        ["--version"],
    ]
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    assert main(failing[0]) == 1
    capsys.readouterr()
    outcomes = []
    with mock.patch.object(argparse.ArgumentParser, "__init__", counting_init):
        for argv in failing:
            try:
                code = main(argv)
            except SystemExit as done:
                code = done.code
            text = capsys.readouterr()
            outcomes.append((code, text.out, text.err))
        for name in sorted(_PINNED_RUNS):
            (tmp_path / name).mkdir()
            assert _pinned_run(name, tmp_path / name) == (
                _PINNED_RUNS[name][1], _PINNED_SHA256[name]), name
        capsys.readouterr()
    assert built == []
    # the text is that of a parser built for the one call
    assert outcomes == [_fresh_parser_outcome(argv, capsys) for argv in failing]
    assert [code for code, _, _ in outcomes] == [1, 1, 0]
    assert "unrecognized arguments: --no-such-flag" in outcomes[0][2]
    assert "tau values must be positive and finite" in outcomes[1][2]


# sha256 of each CSV `figure 1` writes.  Each series' window and
# measured_period come from verification.period_estimate.
_FIGURE_ONE_SHA256 = {
    "fig1_baseline_kmk_tau0.05.csv":
        "c0a9a1002ae41cf5ef5c1742332c9177f756e54e265604c39bb7cf6a7e0e1d2a",
    "fig1_baseline_kmk_tau0.1.csv":
        "16b9c29aeeb351f1ff97f42dd23fd315423850221c108fb334d8d6c6f1313e94",
    "fig1_corrected_kmk4_tau0.05.csv":
        "d30a60384ece6ae73e5400730e54932f438f0d6e484dec777040715a7976def4",
    "fig1_corrected_kmk4_tau0.1.csv":
        "41d635cd61a59195edc2af448953aa50c7e201efbca5f410fe42048dc663688a",
    "fig1_corrected_kmk4_tau0.2.csv":
        "452766e6d84a53494153ffeeb07df3a3d11a6012214e320fe51ea7c0ccdaefe1",
    "fig1_corrected_kmk6_tau0.05.csv":
        "34c4151fc0b87975f86afe007d1ec189d7d25d4af66c56ee903e96945033d2b7",
    "fig1_corrected_kmk6_tau0.1.csv":
        "f00e251ef8a6d637bed607b48111e5a6f8f1b4919f4dd77688b1e577e0924d21",
    "fig1_corrected_kmk6_tau0.2.csv":
        "6727ebd41d1ea392f5f6c6a8fa88f5077017118da0fefafd7fd4a106ba03ff13",
    "fig1_corrected_kmk8_tau0.05.csv":
        "167a608ba4d242e149314092d5aef51777e65f4070ef210e89aa00b8e3540e2d",
    "fig1_corrected_kmk8_tau0.1.csv":
        "dfa2d34cc112ed9fce317630c54fe3fe14797518e05430c23d510244164f2dd0",
    "fig1_corrected_kmk8_tau0.2.csv":
        "d2be56cea038f040109cb4238f0081d71d76c6656faf5a11b219a8fa368e60e3",
}


def test_figure_one_csv_bytes_are_pinned(tmp_path, capsys):
    assert main(["figure", "1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.glob("*.csv")} == _FIGURE_ONE_SHA256


@pytest.mark.parametrize("number", sorted(_FIGURE_RUNS))
def test_figure_csv_bytes_are_pinned(number, tmp_path, capsys):
    argv, pinned = _FIGURE_RUNS[number]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.glob("*.csv")} == pinned


# the C row formatter against its reference, the %-template, in one process
_FORMATTERS = {"c": fastpath._c_rows, "template": fastpath._template_rows}


@needs_c
@pytest.mark.parametrize("name", sorted(_PINNED_RUNS))
def test_pinned_runs_agree_across_formatters(name, tmp_path, capsys):
    digests = set()
    for label, rows in _FORMATTERS.items():
        (tmp_path / label).mkdir()
        with mock.patch.object(fastpath, "format_rows", rows):
            digests.add(_pinned_run(name, tmp_path / label))
    capsys.readouterr()
    assert digests == {(_PINNED_RUNS[name][1], _PINNED_SHA256[name])}


@needs_c
def test_write_trace_of_special_values(tmp_path):
    # nan of either sign, both infinities, -0, the least subnormal, a huge value
    neg_nan = -np.float64(np.nan)
    specials = [np.nan, neg_nan, np.inf, -np.inf, -0.0, 5e-324, 1e300]
    rows = np.array([[i, 0.1 * i, x, -x, x, 2.0 * x, i % 3, abs(x)]
                     for i, x in enumerate(specials)])
    written, bodies = {}, {}
    for label, fmt in _FORMATTERS.items():
        with mock.patch.object(fastpath, "format_rows", fmt):
            write_trace(tmp_path / f"{label}.csv", [("scheme", "test")], 1, rows,
                        truncated="test")
        written[label] = (tmp_path / f"{label}.csv").read_bytes()
        bodies[label] = bytes(fmt(rows, (0, 6)))
    assert written["c"] == written["template"]
    # the file holds the formatter's bytes as they are, then the footer
    assert bodies["c"] == bodies["template"]
    assert written["c"].endswith(bodies["c"] + b"# truncated: test\n")
    assert [ln.split(",")[2] for ln in _data_rows(tmp_path / "c.csv")] == [
        "nan", "nan", "inf", "-inf", "-0", "4.9406564584124654e-324", "1.0000000000000001e+300"]
    assert _lines(tmp_path / "c.csv")[-1] == "# truncated: test"
