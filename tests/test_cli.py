import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from krawpv import cli
from krawpv.cli import main
from krawpv.oracle import WeightParams, oracle_xy


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_missing_suite_is_usage_error(capsys):
    code, _, err = run(capsys, )
    assert code == 2
    assert "--suite" in err


def test_bad_suite_name_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "nope"])
    assert exc.value.code == 2


def test_oracle_suite_json(capsys):
    code, out, _ = run(capsys, "--suite", "oracle", "--N", "2", "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "oracle"
    assert report["seed"] == 7
    assert report["overall"] == "PASS"
    assert all(c["status"] == "PASS" for c in report["cases"])
    assert {"id", "status", "residual", "samples", "resamples"} <= set(report["cases"][0])


def test_json_failures_carry_the_messages(capsys):
    # the tolerance reaches the float trajectory cases only; six of them read rounding noise
    code, out, _ = run(capsys, "--suite", "pv", "--tol", "1e-30")
    assert code == 1
    failed = [c for c in json.loads(out)["cases"] if c["status"] == "FAIL"]
    assert len(failed) == 6
    assert all(c["failures"] and c["failures"][0].startswith("t = ") for c in failed)


def test_text_format_ends_with_token(capsys):
    code, out, _ = run(capsys, "--suite", "oracle", "--N", "1", "--format", "text")
    assert code == 0
    assert out.strip().split()[-1] == "PASS"


def test_csv_format_has_header(capsys):
    code, out, _ = run(capsys, "--suite", "oracle", "--N", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("id,")


def test_same_seed_byte_identical(capsys):
    _, out1, _ = run(capsys, "--suite", "transforms", "--seed", "11", "--samples", "5")
    _, out2, _ = run(capsys, "--suite", "transforms", "--seed", "11", "--samples", "5")
    assert out1 == out2


def test_different_seed_changes_sampling(capsys):
    _, out1, _ = run(capsys, "--suite", "transforms", "--seed", "11", "--samples", "5")
    _, out2, _ = run(capsys, "--suite", "transforms", "--seed", "12", "--samples", "5")
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["overall"] == r2["overall"] == "PASS"
    assert r1["seed"] != r2["seed"]


def test_env_seed_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("KRAWPV_SEED", "33")
    _, out, _ = run(capsys, "--suite", "oracle", "--N", "1")
    assert json.loads(out)["seed"] == 33
    _, out, _ = run(capsys, "--suite", "oracle", "--N", "1", "--seed", "44")
    assert json.loads(out)["seed"] == 44


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "--suite", "oracle", "--N", "1", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["overall"] == "PASS"


def test_dump_catalogue(capsys):
    code, out, _ = run(capsys, "--dump-catalogue")
    assert code == 0
    systems = json.loads(out)
    ids = {s["id"] for s in systems}
    assert {"original", "UV11", "uv54"} <= ids


def test_integrate_csv(capsys):
    code, out, _ = run(capsys, "--integrate", "original", "--N", "2", "--n", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,coord1,coord2"
    assert len(lines) > 2


@pytest.mark.parametrize("argv, message", [
    (("--N", "2", "--N", "3"), "--integrate takes one --N, got 2"),
    (("--N", "3", "--n", "1", "--n", "2"), "--integrate takes one --n, got 2"),
    (("--alpha", "0", "--alpha", "1/2"), "--integrate takes one --alpha, got 2"),
    (("--t", "5"), "--integrate takes no --t; --from-t sets the start"),
], ids=["N", "n", "alpha", "t"])
def test_integrate_rejects_a_second_value_or_a_sweep_t(capsys, argv, message):
    code, out, err = run(capsys, "--integrate", "original", *argv)
    assert code == 2
    assert out == ""
    assert err == f"krawpv: error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("--integrate", "original", "--suite", "toda"), "--integrate takes no --suite"),
    (("--integrate", "original", "--samples", "7"), "--integrate takes no --samples"),
    (("--integrate", "original", "--tol", "nan"), "--integrate takes no --tol"),
    (("--integrate", "original", "--format", "json"), "--integrate takes no --format"),
    (("--integrate", "original", "--seed", "5"), "--integrate takes no --seed"),
    (("--dump-catalogue", "--suite", "all"), "--dump-catalogue takes no --suite"),
    (("--dump-catalogue", "--samples", "0"), "--dump-catalogue takes no --samples"),
    (("--dump-catalogue", "--tol", "1e-6"), "--dump-catalogue takes no --tol"),
    (("--dump-catalogue", "--format", "csv"), "--dump-catalogue takes no --format"),
    (("--dump-catalogue", "--seed", "5"), "--dump-catalogue takes no --seed"),
    (("--dump-catalogue", "--N", "2"), "--dump-catalogue takes no --N"),
    (("--dump-catalogue", "--n", "0"), "--dump-catalogue takes no --n"),
    (("--dump-catalogue", "--alpha", "-1/3"), "--dump-catalogue takes no --alpha"),
    (("--dump-catalogue", "--t", "1"), "--dump-catalogue takes no --t"),
    (("--dump-catalogue", "--from-t", "1"), "--dump-catalogue takes no --from-t"),
    (("--dump-catalogue", "--to-t", "2"), "--dump-catalogue takes no --to-t"),
    (("--dump-catalogue", "--integrate", "original"),
     "--dump-catalogue and --integrate are separate runs; give one"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
def test_an_option_the_mode_ignores_is_a_usage_error(capsys, argv, message):
    # the value given is the default or a valid one: only its presence is wrong
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"krawpv: error: {message}\n"


@pytest.mark.parametrize("argv", [
    ("--suite", "oracle", "--N", "1"),
    ("--dump-catalogue",),
    ("--integrate", "original"),
], ids=lambda v: " ".join(v))
def test_a_malformed_env_seed_is_a_usage_error_in_every_mode(capsys, monkeypatch, argv):
    monkeypatch.setenv("KRAWPV_SEED", "abc")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "krawpv: error: $KRAWPV_SEED is not an integer: 'abc'\n"


def test_plain_modes_still_run(capsys):
    code, out, _ = run(capsys, "--dump-catalogue")
    assert code == 0 and json.loads(out)
    code, out, _ = run(capsys, "--integrate", "original")
    assert code == 0 and out.startswith("t,coord1,coord2")


def test_integrate_takes_one_value_of_each_weight_option(capsys):
    code, out, _ = run(capsys, "--integrate", "original", "--N", "3", "--n", "2",
                       "--alpha", "1/2", "--from-t", "1.5", "--to-t", "1.6")
    assert code == 0
    xy = oracle_xy(WeightParams(3, Fraction(1, 2), Fraction(3, 2)), 2)
    assert out.splitlines()[1].split(",")[0] == "1.5"
    assert [float(c) for c in out.splitlines()[1].split(",")[1:]] == [
        float(xy.x[2]), float(xy.y[2])]


def test_integrate_unsupported_chart_is_usage_error(capsys):
    code, _, err = run(capsys, "--integrate", "UV11")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("--suite", "hamiltonian", "--samples", "0"),
    ("--suite", "discrete", "--N", "0"),
    ("--suite", "pv", "--tol", "nan"),
    ("--suite", "oracle", "--alpha", "1"),
    ("--integrate", "nosuch"),
    ("--integrate", "original", "--from-t", "0"),
    ("--suite", "pv", "--from-t", "0"),
    ("--integrate", "original", "--to-t", "nan"),
    ("--suite", "pv", "--from-t", "inf"),
    ("--integrate", "original", "--to-t", "inf"),
    ("--integrate", "original", "--from-t", "nan"),
    ("--integrate", "original", "--from-t", "inf"),
    ("--suite", "pv", "--to-t", "inf"),
    ("--integrate", "original", "--N", "2", "--n", "-1"),
    ("--suite", "oracle", "--N", "1", "--out", "/nonexistent-dir/r.json"),
    ("--dump-catalogue", "--out", "/nonexistent-dir/r.json"),
    ("--integrate", "original", "--N", "2", "--n", "1", "--out", "/nonexistent-dir/r.csv"),
    ("--suite", "backlund", "--from-t", "1.5", "--to-t", "1.5"),
    ("--integrate", "original", "--from-t", "1.5", "--to-t", "1.5"),
    ("--suite", "oracle", "--N", "1", "--N", "2", "--n", "2"),  # an empty sweep
])
def test_bad_input_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("krawpv: error: ")


def test_negative_rationals_reach_their_options(capsys):
    # argparse alone reads "-1/3" as an option and exits 2: "expected one argument"
    code, out, _ = run(capsys, "--suite", "discrete", "--N", "2", "--alpha", "-1/3",
                       "--format", "text")
    assert code == 0
    assert out.strip().split()[-1] == "PASS"
    assert out == run(capsys, "--suite", "discrete", "--N", "2", "--alpha=-1/3",
                      "--format", "text")[1]
    code, out, _ = run(capsys, "--integrate", "original", "--N", "2", "--alpha", "-1/3")
    assert code == 0 and out.startswith("t,coord1,coord2")


@pytest.mark.parametrize("argv, message", [
    (("--suite", "discrete", "--N", "2", "--t", "-1/3"), "t > 0"),
    (("--integrate", "original", "--from-t", "1e-7"), "--from-t 1e-07 rounds to t = 0"),
    (("--integrate", "original", "--from-t", "1.0000000001", "--to-t", "1"),
     "--from-t 1.0000000001 rounds to t = 1 "),
])
def test_a_value_out_of_range_names_its_bound(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("krawpv: error: ") and message in err


@pytest.mark.parametrize("argv", [
    ("--suite", "all"),
    ("--integrate", "original", "--N", "2", "--n", "1"),
])
def test_unwritable_out_fails_before_the_work(capsys, monkeypatch, tmp_path, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("the work ran before --out was checked")

    monkeypatch.setattr(cli, "run_suite", no_work)
    monkeypatch.setattr(cli, "integrate_planar", no_work)
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "r.out"))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("krawpv: error: cannot write --out ")


def test_a_directory_out_fails_before_the_work(capsys, monkeypatch, tmp_path):
    def no_work(*args, **kwargs):
        raise AssertionError("the work ran before --out was checked")

    monkeypatch.setattr(cli, "integrate_planar", no_work)
    code, out, err = run(capsys, "--integrate", "original", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == f"krawpv: error: cannot write --out {str(tmp_path)!r}: Is a directory\n"


def test_out_may_be_a_device(capsys):
    # a device is written without truncation, which it does not support
    code, out, _ = run(capsys, "--suite", "oracle", "--N", "1", "--out", os.devnull)
    assert code == 0
    assert out == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize("argv", [
    ("--dump-catalogue",),  # the catalogue outgrows the buffer: the write fails
    ("--suite", "decompositions", "--format", "csv"),  # the flush at close fails
])
def test_a_full_out_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--out", "/dev/full")
    assert code == 2
    assert out == ""
    assert err == "krawpv: error: cannot write --out '/dev/full': No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize("argv", [
    ("--dump-catalogue",),  # the catalogue outgrows the buffer: the write fails
    ("--suite", "decompositions", "--format", "csv"),  # the flush fails
])
def test_a_full_stdout_is_a_usage_error(argv):
    # one line: the interpreter's flush of stdout at exit must not report the error again
    with open("/dev/full", "w") as full:
        proc = python_m_krawpv(*argv, stdout=full)
    assert proc.returncode == 2
    assert proc.stderr == "krawpv: error: cannot write stdout: No space left on device\n"


def test_an_os_error_in_the_work_is_not_an_out_error(capsys, monkeypatch, tmp_path):
    def failing_work(*args, **kwargs):
        raise OSError("not a write")

    monkeypatch.setattr(cli, "run_suite", failing_work)
    with pytest.raises(OSError, match="not a write"):
        main(["--suite", "oracle", "--out", str(tmp_path / "r.json")])


STOPPING_RUN = ("--integrate", "original", "--N", "2", "--n", "1", "--to-t", "40")


def test_integration_stopping_early_keeps_the_out_file(capsys, tmp_path):
    target = tmp_path / "x.csv"
    target.write_bytes(b"old,csv\n")
    code, out, err = run(capsys, *STOPPING_RUN, "--out", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("krawpv: error: denominator within ")
    assert target.read_bytes() == b"old,csv\n"
    assert os.listdir(tmp_path) == ["x.csv"]


def test_integration_stopping_early_leaves_no_new_out_file(capsys, tmp_path):
    code, _, _ = run(capsys, *STOPPING_RUN, "--out", str(tmp_path / "new.csv"))
    assert code == 1
    assert os.listdir(tmp_path) == []


def test_a_failing_suite_replaces_the_out_file(capsys, tmp_path):
    # the old text is longer than the report: what is left of it would break the JSON
    target = tmp_path / "r.json"
    target.write_text("old " * 100000)
    code, out, _ = run(capsys, "--suite", "pv", "--tol", "1e-30", "--out", str(target))
    assert code == 1
    assert out == ""
    assert json.loads(target.read_text())["overall"] == "FAIL"


def test_integration_stopping_early_is_one_error_line(capsys):
    # the base system runs into its singular guard near t = 26.3
    code, out, err = run(capsys, "--integrate", "original", "--N", "2", "--n", "1",
                         "--to-t", "40")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("krawpv: error: denominator within ")


def test_integration_underflow_is_one_error_line(capsys, monkeypatch):
    # u' = u^2, u(0) = 1 runs into its pole at t = 1 until the step size underflows
    from krawpv.expr import ONE, ZERO, syms
    from krawpv.integrate import integrate_planar
    from krawpv.systems import PlanarSystem

    u, _ = syms("u v")
    blow_up = integrate_planar(PlanarSystem("blow_up", ("u", "v"), u ** 2, ONE, ZERO, ONE),
                               (1.0, 0.0), 0.0, 2.0, {})
    assert blow_up.status == -1
    monkeypatch.setattr(cli, "integrate_planar", lambda *args: blow_up)
    code, out, err = run(capsys, "--integrate", "original", "--N", "2", "--n", "1")
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "krawpv: error: Required step size is less than spacing between numbers."]


def python_m_krawpv(*argv, stdout=subprocess.PIPE):
    """``python -m krawpv ARGV`` from this checkout, with no ``$KRAWPV_SEED``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "KRAWPV_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "krawpv", *argv], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def test_python_dash_m_runs_the_cli(capsys, monkeypatch):
    # `python -m krawpv` from a checkout prints what main prints and exits with its code
    monkeypatch.delenv("KRAWPV_SEED", raising=False)
    argv = ["--suite", "decompositions", "--samples", "5", "--format", "text"]
    code, want, _ = run(capsys, *argv)
    proc = python_m_krawpv(*argv)
    assert (code, proc.returncode) == (0, 0), proc.stderr
    assert proc.stdout == want
    assert want.splitlines()[-1] == "PASS"
