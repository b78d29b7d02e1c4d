"""End-to-end CLI runs in subprocesses: determinism, exit codes, schemas."""

import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ritusfw
from child_env import child_env
from ritusfw import cli, field_profiles
from ritusfw.cli import RunConfig, load_config, run
from ritusfw.errors import ConfigurationError

RFW = [sys.executable, "-m", "ritusfw.cli"]


def run_cli(*args, cwd):
    return subprocess.run(RFW + list(args), capture_output=True, text=True,
                          env=child_env(), cwd=cwd, timeout=300)


def write_config(path, **overrides):
    cfg = {
        "profile": {"kind": "uniform", "B": 1.0},
        "grid": {"N": 256},
        "n_max": 3,
        "tolerances": {"eig": 1e-4, "residual": 1e-3},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def test_two_identical_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    for sub in ("a", "b"):
        proc = run_cli("spectrum", "--config", str(cfg), "--out",
                       str(tmp_path / sub), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    rep_a = (tmp_path / "a" / "report.json").read_bytes()
    rep_b = (tmp_path / "b" / "report.json").read_bytes()
    assert rep_a == rep_b
    csv_a = (tmp_path / "a" / "spectrum.csv").read_bytes()
    assert csv_a == (tmp_path / "b" / "spectrum.csv").read_bytes()


def test_report_contents_and_csv_schema(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    proc = run_cli("spectrum", "--config", str(cfg), "--out",
                   str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "pass"
    assert report["command"] == "spectrum"
    assert report["version"] == ritusfw.__version__
    assert report["config"]["grid"]["N"] == 256
    ks = report["results"]["sigma_plus"]
    # at N=256 the zero mode resolves to ~1e-7, outside the exact-zero clamp
    assert abs(ks[0]) < 1e-6
    assert abs(ks[1] - 2.0) < 1e-3
    header = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()[0]
    assert header == "sigma,n,k"


def test_tolerance_violation_exits_one_with_report(tmp_path):
    cfg = write_config(tmp_path / "cfg.json",
                       tolerances={"eig": 1e-4, "residual": 1e-12})
    proc = run_cli("verify-ritus", "--config", str(cfg), "--out",
                   str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "fail"
    assert not report["checks"]["intertwining"]["pass"]


def test_malformed_config_exits_two_without_output(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    proc = run_cli("spectrum", "--config", str(bad), "--out",
                   str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 2
    assert not (tmp_path / "out").exists()
    assert "config" in proc.stderr.lower() or "malformed" in proc.stderr.lower()


@pytest.mark.parametrize("text,cause", [
    (b'{"mass": 1.0\xff}',
     "'utf-8' codec can't decode byte 0xff in position 12: invalid start byte"),
    (b"[" * 100000 + b"]" * 100000, "maximum recursion depth exceeded"),
], ids=["not-utf8", "nested-too-deep"])
def test_an_unreadable_config_exits_two_on_one_line(tmp_path, text, cause):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    out = tmp_path / "out"
    proc = run_cli("spectrum", "--config", str(bad), "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"rfw: malformed JSON config {bad}: {cause}")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    assert not out.exists()


def test_unknown_config_key_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"grid": {"N": 256}, "unknown_knob": 3}))
    proc = run_cli("spectrum", "--config", str(bad), cwd=tmp_path)
    assert proc.returncode == 2
    assert "unknown_knob" in proc.stderr


def test_unknown_command_exits_two(tmp_path):
    proc = run_cli("frobnicate", cwd=tmp_path)
    assert proc.returncode == 2


def test_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    proc = run_cli("spectrum", "--config", str(cfg), "--eB", "2.0", "--out",
                   str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["profile"]["B"] == 2.0
    assert abs(report["results"]["sigma_plus"][1] - 4.0) < 1e-2


def test_verify_ritus_command(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", grid={"N": 512})
    proc = run_cli("verify-ritus", "--config", str(cfg), "--out",
                   str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "pass"
    levels = report["results"]["levels"]
    assert [row["n"] for row in levels] == [0, 1, 2, 3]
    header = (tmp_path / "out" / "levels.csv").read_text().splitlines()[0]
    assert header == "n,k,p0,py,E_D"


def test_tabulated_verify_ritus_passes(tmp_path):
    # W = x tabulated on [-12, 12] at the default N, n_max and tolerances:
    # the WKB walls inside the table keep level 8's intertwining below 1e-5
    table = tmp_path / "W.csv"
    table.write_text("x,W\n" + "".join(f"{x / 10!r},{x / 10!r}\n" for x in range(-120, 121)))
    cfg = write_config(tmp_path / "cfg.json", profile={"kind": "tabulated", "path": str(table)},
                       grid={"N": 1024}, n_max=8, tolerances={"eig": 1e-6, "residual": 1e-5})
    proc = run_cli("verify-ritus", "--config", str(cfg), "--out", str(tmp_path / "out"),
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "pass"
    assert report["checks"]["intertwining"]["pass"]


def test_stdout_report_when_no_out_dir(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    proc = run_cli("spectrum", "--config", str(cfg), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"] == "spectrum"


# the six mass cases keep the command as their id; the others run under `all`
BAD_CONFIGS = [pytest.param(command, {"mass": -1.0}, "mass", id=command)
               for command in ("spectrum", "verify-ritus", "fw-exact",
                               "fw-series", "propagator", "all")] + [
    pytest.param("all", {"e": 0.0}, "e must", id="e-zero"),
    pytest.param("all", {"profile": {"kind": "exponential", "alpha": 0.0}},
                 "alpha", id="alpha-zero"),
    pytest.param("all", {"tolerances": {"eig": float("nan"), "residual": 1e-3}},
                 "tolerances.eig", id="eig-nan"),
    pytest.param("all", {"grid": {"N": 1024}, "n_max": 300}, "n_max", id="n_max-above-quarter-N"),
    pytest.param("all", {"grid": {"N": 64.7}}, "grid.N", id="N-fractional"),
    pytest.param("all", {"n_max": 2.9}, "n_max", id="n_max-fractional"),
    pytest.param("all", {"grid": {"N": "abc"}}, "grid.N", id="N-non-numeric"),
    pytest.param("all", {"mass": "x"}, "mass", id="mass-non-numeric"),
    # an integer beyond the float range reads as inf, as 1e400 does
    pytest.param("all", {"mass": 10 ** 400}, "mass must be positive with a finite square, got inf",
                 id="mass-integer-overflows"),
    pytest.param("spectrum", {"grid": 5}, "must be a JSON object", id="grid-not-object"),
    pytest.param("spectrum", {"tolerances": [1]}, "must be a JSON object",
                 id="tolerances-not-object"),
    pytest.param("spectrum", {"profile": "uniform"}, "must be a JSON object",
                 id="profile-not-object"),
    pytest.param("spectrum", {"mass": True}, "mass must be a number, got True",
                 id="mass-boolean"),
    pytest.param("spectrum", {"n_max": True}, "n_max must be a number, got True",
                 id="n_max-boolean"),
    pytest.param("spectrum", {"profile": {"kind": "uniform", "B": True}},
                 "profile B must be a number, got True", id="B-boolean"),
    # a profile key its kind does not read, which the report would echo unused
    pytest.param("spectrum", {"profile": {"kind": "uniform", "alpha": 0.3}},
                 "profile key 'alpha' is not read by the uniform profile", id="uniform-alpha"),
    pytest.param("spectrum", {"profile": {"kind": "uniform", "path": "nope.csv"}},
                 "profile key 'path'", id="uniform-path"),
    pytest.param("spectrum", {"profile": {"kind": "exponential", "path": "t.csv"}},
                 "profile key 'path' is not read by the exponential profile",
                 id="exponential-path"),
    pytest.param("spectrum", {"profile": {"kind": "tabulated", "path": "t.csv", "B": 2.0}},
                 "profile key 'B' is not read by the tabulated profile", id="tabulated-B"),
    pytest.param("spectrum", {"profile": {"kind": "uniform", "gauge": 1}},
                 "profile key 'gauge'", id="profile-unknown-key"),
    # a typo inside a section, which would otherwise run on that key's default
    pytest.param("all", {"grid": {"n": 256}}, "unknown config key 'grid.n'", id="grid-typo"),
    pytest.param("all", {"tolerances": {"eigen": 1e-3}},
                 "unknown config key 'tolerances.eigen'", id="tolerances-typo"),
    # the grid's one number is N; its padding is the constant spectral_grid.PADDING
    pytest.param("all", {"grid": {"N": 256, "padding": 1.5}},
                 "unknown config key 'grid.padding'", id="padding-unknown"),
    # alpha c underflows to 0, so the exponential field's length |alpha c|^-1/2 is not finite
    pytest.param("spectrum", {"profile": {"kind": "exponential", "B": 1e-320, "alpha": 1e-170},
                              "p_y": 1e-320 / 1e-170 - 1e4 * 1e-170},
                 "rfw: profile B = 1e-320 and alpha = 1e-170 give |alpha c| = 0 "
                 "(c = -1.35666e-166), so the field's length |alpha c|^-1/2 is not finite\n",
                 id="exponential-length-underflows"),
    # eps * mass = 2.2e-6 exceeds tolerances.eig
    pytest.param("all", {"mass": 1e10, "tolerances": {"eig": 1e-6, "residual": 1e-5}},
                 "mass = 10000000000.0 rounds", id="mass-above-floor"),
]


@pytest.mark.parametrize("command,overrides,key", BAD_CONFIGS)
def test_nonpositive_mass_exits_two_without_output(tmp_path, command, overrides, key):
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    proc = run_cli(command, "--config", str(cfg), "--out",
                   str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 2
    assert not (tmp_path / "out").exists()
    assert key in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flag,value,path", [
    ("--eB", "-1e-9", ("profile", "B")), ("--py", "-1e-3", ("p_y",)), ("--p0", "-1e-1", ("p0",)),
    ("--mass", "-1e0", None),
])
def test_float_flags_take_negative_numbers_in_exponent_notation(tmp_path, flag, value, path):
    # as the --flag=value form does: the value reaches the config, and a
    # negative mass is refused by validation, not by the argument parser
    out = tmp_path / "out"
    proc = run_cli("spectrum", flag, value, "--out", str(out), cwd=tmp_path)
    if path is None:
        assert proc.returncode == 2
        assert proc.stderr == "rfw: mass must be positive with a finite square, got -1.0\n"
        assert not out.exists()
    else:
        assert proc.returncode == 0, proc.stderr
        echo = json.loads((out / "report.json").read_text())["config"]
        for key in path:
            echo = echo[key]
        assert echo == float(value)


@pytest.mark.parametrize("key", ["e", "mass", "p_y", "p0", "grid.N", "n_max",
                                 "tolerances.eig", "tolerances.residual"])
def test_non_numeric_config_value_names_its_key(tmp_path, key):
    section, _, name = key.rpartition(".")
    cfg = write_config(tmp_path / "cfg.json",
                       **({section: {name: "abc"}} if section else {name: "abc"}))
    with pytest.raises(ConfigurationError) as exc:
        load_config(cfg)
    assert str(exc.value) == f"{key} must be a number, got 'abc'"


@pytest.mark.parametrize("cfg", [
    pytest.param(RunConfig(), id="default"),
    pytest.param(RunConfig(profile_kind="exponential", profile_params={"B": -2.0, "alpha": 0.05},
                           e=0.5, mass=3.0, p_y=0.25, p0=0.7, grid_n=2048,
                           n_max=5, tol_eig=1e-7, tol_residual=1e-4, rep="second"),
                 id="every-field-off-default"),
])
def test_a_config_file_of_the_echo_loads_the_same_config(tmp_path, cfg):
    # the echo and the loader read one key table: each path the report
    # states is a path the loader reads back into the same field
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.echo()))
    assert load_config(path) == cfg


@pytest.mark.parametrize("profile,echoed", [
    pytest.param({"kind": "exponential"}, {"kind": "exponential", "B": 1.0, "alpha": 0.1},
                 id="both-defaults"),
    pytest.param({"kind": "exponential", "B": 2}, {"kind": "exponential", "B": 2, "alpha": 0.1},
                 id="integer-B-kept"),
    pytest.param({"kind": "uniform"}, {"kind": "uniform", "B": 1.0}, id="uniform-default"),
])
def test_the_echo_states_the_profile_parameters_a_run_defaults(tmp_path, profile, echoed):
    # a parameter the config leaves out is echoed at the default the run
    # reads; one it gives is echoed as given
    path = write_config(tmp_path / "cfg.json", profile=profile)
    echo = load_config(path).echo()["profile"]
    assert echo == echoed
    assert [type(echo[key]) for key in echoed] == [type(v) for v in echoed.values()]


@pytest.mark.parametrize("mass,code", [(10.0, 0), (1e9, 0), (1e10, 2), (1e100, 2), (1e154, 2)])
def test_mass_whose_rounding_exceeds_the_eigenvalue_tolerance_is_refused(mass, code):
    # eps * m > tolerances.eig = 1e-6 from m = 4.5e9: no energy check can pass
    cfg = RunConfig(mass=mass)
    if code:
        with pytest.raises(ConfigurationError, match=r"^mass = .* above tolerances\.eig = 1e-06"):
            cfg.validate()
    else:
        cfg.validate()


@pytest.mark.parametrize("overrides", [
    pytest.param({}, id="default"),
    pytest.param({"profile_kind": "exponential", "profile_params": {"B": 1.0, "alpha": 0.1},
                  "grid_n": 1536}, id="exponential-N1536"),
])
def test_fw_series_masses_stay_4_8_16_up_to_k_16(overrides):
    # k_1 is about 2 and k_max 15.9999994 and 15.36 here, so the scale
    # max(sqrt(k_max), sqrt(2 k_1), min(4, 8 sqrt(k_1))) is 4, the ladder
    # {1, 2, 4} times it the fixed {4, 8, 16}, and the section keeps its bytes
    report, ok = run("fw-series", RunConfig(**overrides))
    assert ok
    assert [row["m"] for row in report["results"]["bd"]] == [4.0, 8.0, 16.0]


def test_all_factors_no_grid_sized_matrix(monkeypatch):
    # the field FW checks factor the 2L x 2L Gram matrix and 2L x 4 pairs per
    # level: no QR in `all` takes a matrix with more than 2L rows
    rows = []
    qr = np.linalg.qr

    def recording_qr(a, *args, **kwargs):
        rows.append(np.shape(a)[-2])
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    cfg = RunConfig()
    report, ok = run("all", cfg)
    assert ok
    assert rows and max(rows) <= 2 * (cfg.n_max + 1)


def test_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # rfw pins BLAS to one thread whatever the environment asks; at 65
    # levels on N = 16384, two threads moved rounding-level residuals
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(child_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(RFW + ["all", "--levels", "64", "--grid-n", "16384",
                                     "--out", str(out)],
                              capture_output=True, text=True, env=env, cwd=tmp_path,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_table_by_relative_and_absolute_path_gives_identical_reports(tmp_path, monkeypatch):
    # the report echoes a table's resolved path, not the path as given
    table = tmp_path / "table.csv"
    xs = [-16.0 + 0.2 * i for i in range(161)]
    table.write_text("x,W\n" + "".join(f"{x!r},{x + 0.003 * math.sin(0.5 * x)!r}\n"
                                       for x in xs))
    monkeypatch.chdir(tmp_path)
    reports = []
    for path in ("table.csv", str(table)):
        report, ok = run("spectrum", RunConfig(profile_kind="tabulated",
                                               profile_params={"path": path}))
        assert ok
        assert report["config"]["profile"]["path"] == os.path.realpath(table)
        reports.append(cli.emit_report(report, tmp_path / "report.json"))
    assert reports[0] == reports[1]


def test_fw_series_masses_follow_k_max():
    # n_max = 12 reaches k = 24: the masses scale with sqrt(k_max), so m^2 >> k
    # holds on every level and the 1/m^2 slope stays in its window
    report, ok = run("fw-series", RunConfig(n_max=12))
    assert ok, report["checks"]
    masses = [row["m"] for row in report["results"]["bd"]]
    assert masses[0] == pytest.approx(24.0 ** 0.5, rel=1e-6)
    assert masses[1:] == [2.0 * masses[0], 4.0 * masses[0]]
    assert -2.2 <= report["results"]["bd_slope"] <= -1.8


TABLES = {
    "missing": None,
    "directory": None,
    "non-numeric": "x,W\n0,0\n1,1\n2,abc\n3,3\n",
    "three-rows": "x,W\n0,0\n1,1\n2,2\n",
    "wrong-header": "a,b\n0,0\n1,1\n2,2\n3,3\n",
    "empty": "",
    "no-W-cell": "x,W\n0,0\n1\n2,2\n3,3\n4,4\n",
    "non-finite": "x,W\n0,0\n1,nan\n2,2\n3,3\n",
    "infinite-x": "x,W\n0,0\n1,1\n2,2\n3,3\ninf,4\n",
}


@pytest.mark.parametrize("case", sorted(TABLES))
def test_bad_table_exits_two_naming_its_path(tmp_path, case):
    table = tmp_path / "table.csv"
    if case == "directory":
        table.mkdir()
    elif TABLES[case] is not None:
        table.write_text(TABLES[case])
    cfg = write_config(tmp_path / "cfg.json", profile={"kind": "tabulated", "path": str(table)})
    proc = run_cli("spectrum", "--config", str(cfg), "--out", str(tmp_path / "out"),
                   cwd=tmp_path)
    assert proc.returncode == 2
    assert not (tmp_path / "out").exists()
    assert "profile.path" in proc.stderr and str(table) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_main_reads_a_table_once(tmp_path, monkeypatch):
    # validation loads the table, and the run builds on the profile it returns
    table = tmp_path / "W.csv"
    table.write_text("x,W\n" + "".join(f"{x / 10!r},{x / 10!r}\n" for x in range(-120, 121)))
    cfg = write_config(tmp_path / "cfg.json", profile={"kind": "tabulated", "path": str(table)},
                       grid={"N": 1024}, n_max=8, tolerances={"eig": 1e-6, "residual": 1e-5})
    calls = []
    load = field_profiles.load_tabulated_csv

    def counting_load(path):
        calls.append(path)
        return load(path)

    monkeypatch.setattr(field_profiles, "load_tabulated_csv", counting_load)
    # main() pins the thread variables to 1; keep them test-local
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    assert cli.main(["all", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert calls == [str(table)]


# the three mass cases keep their value as the id
@pytest.mark.parametrize("flag,key", [
    pytest.param("--mass=0", "mass", id="0"),
    pytest.param("--mass=nan", "mass", id="nan"),
    pytest.param("--mass=inf", "mass", id="inf"),
    pytest.param("--eB=0", "B", id="eB-0"),
    pytest.param("--eB=nan", "B", id="eB-nan"),
    pytest.param("--eB=inf", "B", id="eB-inf"),
    pytest.param("--py=nan", "p_y", id="py-nan"),
    pytest.param("--p0=nan", "p0", id="p0-nan"),
    # finite, but the checks take the square: p0^2 and m^2 overflow
    pytest.param("--p0=1.5e154", "p0", id="p0-square-overflows"),
    pytest.param("--mass=1e160", "mass", id="mass-square-overflows"),
])
def test_zero_or_nonfinite_mass_flag_exits_two(tmp_path, flag, key):
    cfg = write_config(tmp_path / "cfg.json")
    proc = run_cli("spectrum", "--config", str(cfg), flag, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert key in proc.stderr


def test_eB_flag_on_a_tabulated_profile_exits_two(tmp_path):
    # a table fixes W itself: --eB would be echoed as a B the run never used
    table = tmp_path / "W.csv"
    table.write_text("x,W\n" + "".join(f"{x / 10!r},{x / 10!r}\n" for x in range(-120, 121)))
    cfg = write_config(tmp_path / "cfg.json", profile={"kind": "tabulated", "path": str(table)})
    proc = run_cli("spectrum", "--config", str(cfg), "--eB", "5", "--out", str(tmp_path / "out"),
                   cwd=tmp_path)
    assert proc.returncode == 2
    assert not (tmp_path / "out").exists()
    assert "profile key 'B' is not read by the tabulated profile" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_spectrum_builds_no_levels(tmp_path):
    # at N=256 the default config's levels do not pair (PairingError), but
    # `spectrum` never builds them: it writes its report and fails only its
    # own closed-form check
    out = tmp_path / "d"
    proc = run_cli("spectrum", "--grid-n", "256", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    report = json.loads((out / "report.json").read_text())
    assert not report["checks"]["spectrum_error"]["pass"]
    assert (out / "spectrum.csv").exists()


def test_all_records_failed_section_and_runs_the_others(tmp_path):
    # p0 = 1 sits on the zero mode's mass shell, so only the propagator aborts
    out = tmp_path / "d"
    proc = run_cli("all", "--p0", "1.0", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 1
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "fail"
    sections = report["sections"]
    assert sections["propagator"]["checks"] == {}
    assert sections["propagator"]["error"].startswith("ConditioningError: ")
    for name in ("spectrum", "verify-ritus", "fw-exact", "fw-series"):
        assert "error" not in sections[name]
        assert sections[name]["checks"]


# the detail file each section writes with --out, beside report.json
SECTION_CSV = {"spectrum": "spectrum.csv", "verify-ritus": "levels.csv",
               "propagator": "pole_sweep.csv"}


def test_each_single_command_reports_its_section_of_all(tmp_path):
    # one runner for every command: a section does not depend on what an
    # earlier section built, and writes the same CSV alone as under `all`
    whole, ok = run("all", RunConfig(), tmp_path / "all")
    assert ok
    for command, section in whole["sections"].items():
        single, _ = run(command, RunConfig(), tmp_path / command)
        assert single["results"] == section["results"], command
        assert single["checks"] == section["checks"], command
    for command, name in SECTION_CSV.items():
        assert (tmp_path / command / name).read_bytes() == (tmp_path / "all" / name).read_bytes()


@pytest.mark.parametrize("command,cfg,key", [
    pytest.param("all", RunConfig(mass=-1.0), "mass must be positive", id="negative-mass"),
    pytest.param("spectrum", RunConfig(n_max=300), "n_max = 300", id="n_max-above-quarter-N"),
    # the command is checked first, before the config that is also unusable here
    pytest.param("bogus", RunConfig(mass=-1.0), "unknown command 'bogus'; choose one of "
                 "spectrum, verify-ritus, fw-exact, fw-series, propagator, all",
                 id="unknown-command"),
    # the exponential field's c = p_y - eB/alpha: a square that overflows, or
    # a level count |c|/|alpha| that does
    *(pytest.param("all", RunConfig(e=e, profile_kind="exponential", profile_params=params),
                   r"profile B = \S+ and alpha = \S+ give c = p_y - eB/alpha = ", id=name)
      for name, e, params in [("exponential-alpha-1e-160", 1.0, {"B": 1.0, "alpha": 1e-160}),
                              ("exponential-alpha-1e-250", 1.0, {"B": 1e-150, "alpha": 1e-250}),
                              ("exponential-B-1e100", 1.0, {"B": 1e100, "alpha": 1e-100}),
                              ("exponential-e-1e160", 1e160, {})]),
    # a uniform field whose potential overflows in the grid sizing, after validation
    pytest.param("spectrum", RunConfig(profile_params={"B": 1e300}),
                 "the field's potential overflows", id="uniform-potential-overflows"),
    # a uniform field whose e*B overflows, or underflows to 0: the field has no length
    *(pytest.param("all", RunConfig(e=e, profile_params={"B": e}),
                   re.escape(f"e = {e} and profile B = {e} give eB = {e * e}, which must be "
                             "finite and nonzero"), id=name)
      for name, e in [("uniform-eB-overflows", 1e200), ("uniform-eB-underflows", 1e-200)]),
])
def test_run_refuses_what_the_console_script_refuses(tmp_path, command, cfg, key):
    # the library entry validates, so no section runs and nothing is written
    with pytest.raises(ConfigurationError, match=key):
        run(command, cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_a_curvature_that_overflows_exits_two_naming_it(tmp_path):
    # at eB = 1e154 the potential is finite at its minimum V = -eB, and its
    # curvature 2 (eB)^2 is not: the message names the curvature, with no
    # traceback and no warning
    proc = run_cli("spectrum", "--eB", "1e154", "--out", str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == ("rfw: the field's potential overflows: its curvature V'' = inf at the "
                           "sampled minimum V = -1e+154 gives the level estimate k_est = inf for "
                           "n_max = 8\n")
    assert not (tmp_path / "out").exists()


def test_a_flag_takes_its_full_name_only(tmp_path):
    # the parser refuses an abbreviation: main attaches a value such as -1e0
    # only to a flag's full name
    out = tmp_path / "out"
    proc = run_cli("spectrum", "--ma", "-1e0", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == "rfw: unrecognized arguments: --ma -1e0\n"
    assert not out.exists()


@pytest.mark.parametrize("args,message", [
    (["--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["--grid-n", "1e3"], "argument --grid-n: invalid int value: '1e3'"),
    (["--mass"], "argument --mass: expected one argument"),
], ids=["unknown-flag", "bad-int", "no-value"])
def test_a_usage_error_is_one_line_and_writes_nothing(tmp_path, args, message):
    out = tmp_path / "out"
    proc = run_cli("spectrum", "--out", str(out), *args, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == f"rfw: {message}\n"
    assert not out.exists()


def test_help_prints_the_usage_and_exits_zero(tmp_path):
    proc = run_cli("--help", cwd=tmp_path)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: rfw ")


def test_fw_series_runs_where_the_fw_operator_is_refused(tmp_path):
    # at eB = 1e3 on the default grid fw-exact refuses U (a flagged negative
    # zero mode); fw-series reads only the levels and its own three masses
    out = tmp_path / "out"
    proc = run_cli("fw-series", "--eB", "1e3", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "report.json").read_text())
    assert sorted(report["checks"]) == ["bd_slope", "series_bound", "series_slope"]


@pytest.mark.parametrize("name", ["levels.csv", "report.json"])
def test_a_target_that_is_not_a_regular_file_exits_two_writing_nothing(tmp_path, name):
    # every target is checked before the first byte, so not even the
    # spectrum.csv that comes before levels.csv is written
    out = tmp_path / "d"
    (out / name).mkdir(parents=True)
    proc = run_cli("all", "--grid-n", "512", "--levels", "2", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("rfw: ") and str(out / name) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert [path.name for path in out.iterdir()] == [name]


@pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "over-an-earlier-run"])
def test_a_failed_write_leaves_every_target_as_it_was(tmp_path, monkeypatch, capsys, earlier):
    # the second CSV write fails: every file goes to a temporary sibling
    # first, so no target is created or changed, and no temporary is left
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "1")  # main pins them; the test restores them
    out = tmp_path / "d"
    argv = ["all", "--grid-n", "512", "--levels", "2", "--out", str(out)]
    if earlier:
        assert cli.main([*argv, "--p0", "0.4"]) == 0
    before = {path.name: path.read_bytes() for path in out.glob("*")}
    write_csv, written = cli._write_csv, []

    def second_fails(path, header, rows):
        written.append(path)
        if len(written) == 2:
            raise OSError(f"no space left on device: {path.name}")
        write_csv(path, header, rows)

    monkeypatch.setattr(cli, "_write_csv", second_fails)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("rfw: no space left on device: ")
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_lanczos_breakdown_is_recorded_in_every_section(tmp_path):
    # at N = 512 the zero mode's eigenvalue stays at -7.1e-8, below
    # -tolerances.eig = -1e-8: the channel solve aborts, each section records
    # that, and the report is written without a traceback
    cfg = write_config(tmp_path / "cfg.json", profile={"kind": "uniform", "B": 8.0},
                       grid={"N": 512}, n_max=4, tolerances={"eig": 1e-8, "residual": 1e-5})
    out = tmp_path / "d"
    proc = run_cli("all", "--config", str(cfg), "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "fail"
    sections = report["sections"]
    assert sorted(sections) == ["fw-exact", "fw-series", "propagator", "spectrum",
                                "verify-ritus"]
    for name, section in sections.items():
        assert section["error"].startswith(
            "DiscretizationError: eigenvalue -7.131e-08 below -tol_eig"), name
        assert section["checks"] == {}, name


def test_p0_just_off_a_high_levels_shell_keeps_every_section():
    # p0 sits 1.1e-3 above level 8's shell (k_8 = 128), just outside the
    # conditioning guard: the closed-form propagator fails its checks there
    # and the report keeps every section's checks
    report, ok = run("all", RunConfig(profile_params={"B": 8.0}, p0=11.35892))
    assert not ok and report["status"] == "fail"
    for name, section in report["sections"].items():
        assert "error" not in section, name
        assert section["checks"], name
    assert not report["sections"]["propagator"]["checks"]["diagonal_blocks"]["pass"]


def test_pole_sweep_skips_the_points_on_a_lower_levels_shell(tmp_path):
    # at m = 10 the sweep toward level 1's shell sqrt(2 + m^2) = 10.0995
    # passes p0 = 9.9995, 5e-4 below level 0's shell m: that point is skipped
    out = tmp_path / "d"
    proc = run_cli("all", "--mass", "10", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    propagator = json.loads((out / "report.json").read_text())["sections"]["propagator"]
    rows = propagator["results"]["pole_rows"]
    assert len(rows) == 4 and all(abs(row["p0"] - 10.0) > 1e-3 for row in rows)
    assert propagator["checks"]["pole_exponent"]["pass"]
    assert len((out / "pole_sweep.csv").read_text().splitlines()) == 1 + 4


@pytest.mark.parametrize("B,n_max", [(1e-3, 8), (1e-3, 2), (8.0, 1)])
def test_fw_series_passes_in_a_weak_field_and_a_strong_one(tmp_path, B, n_max):
    # at eB = 1e-3 the order-3 error k_1^3/16m^5 at m = 4, 8, 16 sank below the
    # rounding of sqrt(k_1 + m^2), and with n_max = 2 it was exactly 0, so the
    # slope's log wrote NaN into the report; at eB = 8 with one level
    # k_1/m^2 was 1 at the lightest mass, outside the series' reach
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report, ok = run("all", RunConfig(profile_params={"B": B}, n_max=n_max))
        data = cli.emit_report(report, tmp_path / "report.json")
    assert ok, report["sections"]["fw-series"]["checks"]
    assert b"NaN" not in data


def test_detail_csvs_hold_the_reports_values(tmp_path):
    cfg = RunConfig(grid_n=256, n_max=3, p_y=0.25)
    report, _ = run("all", cfg, outdir=tmp_path)
    sections = report["sections"]

    def rows(name, header):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header
        return [line.split(",") for line in lines[1:]]

    def digits(value):
        return format(value, ".12g")

    spectrum = sections["spectrum"]["results"]
    expected = [["1", str(n), digits(k)] for n, k in enumerate(spectrum["sigma_plus"])]
    expected += [["-1", str(n), digits(k)] for n, k in enumerate(spectrum["sigma_minus"])]
    assert rows("spectrum.csv", "sigma,n,k") == expected

    # E_D is the level's shell sqrt(max(k, 0) + m^2): N = 256 keeps a flagged
    # k_0 = -1.2e-7, whose shell is m
    levels = sections["verify-ritus"]["results"]["levels"]
    assert rows("levels.csv", "n,k,p0,py,E_D") == [
        [str(row["n"]), digits(row["k"]), "0.3", "0.25",
         digits(math.sqrt(max(row["k"], 0.0) + 1.0))]
        for row in levels]
    assert levels[0]["k"] < 0 and rows("levels.csv", "n,k,p0,py,E_D")[0][4] == "1"
    assert len(levels) == cfg.n_max + 1

    pole_rows = sections["propagator"]["results"]["pole_rows"]
    assert rows("pole_sweep.csv", "p0,n,block_norm") == [
        [digits(row["p0"]), "1", digits(row["block_norm"])] for row in pole_rows]
    assert len(pole_rows) == 5


@pytest.mark.parametrize("B", [1.0, -1.0])
@pytest.mark.parametrize("n_max,N,code", [(1, 1024, 0), (1, 2048, 0), (1, 4096, 0),
                                          (2, 1024, 1), (2, 2048, 0), (2, 4096, 0)])
def test_shallow_exponential_well_runs(B, n_max, N, code):
    # at alpha = 0.5 the potential levels off at c^2 = (eB/alpha)^2 = 4, and
    # the field binds k = 0, 1.75, 3 and 3.75; the grid sizing keeps its level
    # estimate below the plateau, so `all` runs.  n_max = 2 on N = 1024 keeps
    # a negative zero mode, the documented refusal of the FW sections
    cfg = RunConfig(profile_kind="exponential", profile_params={"B": B, "alpha": 0.5},
                    n_max=n_max, grid_n=N)
    report, ok = run("all", cfg)
    assert ok == (code == 0)
    if code:
        assert report["sections"]["fw-exact"]["error"].startswith(
            "DiscretizationError: level 0 has k = ")
    else:
        levels = report["sections"]["verify-ritus"]["results"]["levels"]
        assert [row["k"] for row in levels] == pytest.approx([0.0, 1.75, 3.0][:n_max + 1],
                                                             abs=1e-3)


@pytest.mark.parametrize("B", [1.0, -1.0])
def test_exponential_run_beyond_bound_state_count_exits_two(tmp_path, B):
    # |c|/|alpha| = |0 - B/0.5| / 0.5 = 4: the zero-mode channel binds levels
    # 0..3 and its partner 0..2, and each channel solves n_max + 1 levels
    for n_max in (3, 8):
        cfg = write_config(tmp_path / "cfg.json", n_max=n_max,
                           profile={"kind": "exponential", "B": B, "alpha": 0.5})
        proc = run_cli("all", "--config", str(cfg), "--out", str(tmp_path / "out"),
                       cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert not (tmp_path / "out").exists()
        assert (f"asks for {n_max + 1} levels of each channel, but the exponential field "
                "binds 4 in the zero-mode channel and 3 in its partner") in proc.stderr


@pytest.mark.parametrize("B,alpha", [(1.0, 0.1), (1.0, -0.1), (-1.0, 0.1), (-1.0, -0.1)])
def test_exponential_field_without_zero_mode_exits_two(tmp_path, B, alpha):
    # M = p_y - eW = c + (eB/alpha) e^{-alpha x}, c = p_y - eB/alpha: at p_y = 0
    # the signs of c and eB/alpha are opposite and the field binds levels; at
    # p_y = 1.1 eB/alpha they agree, and it binds none
    lam = B / alpha
    for p_y, code in ((0.0, 0), (1.1 * lam, 2)):
        cfg = write_config(tmp_path / "cfg.json", p_y=p_y, grid={"N": 512},
                           profile={"kind": "exponential", "B": B, "alpha": alpha})
        out = tmp_path / f"out{code}"
        proc = run_cli("all", "--config", str(cfg), "--out", str(out), cwd=tmp_path)
        assert proc.returncode == code, proc.stderr
        if code:
            assert proc.stdout == ""
            assert not out.exists()
            assert proc.stderr == (
                "rfw: the exponential field binds no level: a zero mode needs "
                f"c = p_y - eB/alpha = {p_y - lam:.6g} and eB/alpha = {lam:.6g} of opposite "
                "signs\n")


CLAIMS = [("verify-ritus", "intertwining"), ("fw-exact", "main_claim"),
          ("fw-exact", "rep_agreement"), ("propagator", "diagonal_blocks"),
          ("propagator", "cross_blocks")]


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """CI's tabulated field W = +-(x + 0.003 sin(0.5 x)) on [-16, 16], one table per sign."""
    root = tmp_path_factory.mktemp("tables")
    xs = [-16.0 + 0.2 * i for i in range(161)]
    paths = {}
    for sign in (1.0, -1.0):
        paths[sign] = root / f"W{sign:+.0f}.csv"
        paths[sign].write_text("x,W\n" + "".join(
            f"{x!r},{sign * (x + 0.003 * math.sin(0.5 * x))!r}\n" for x in xs))
    return paths


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(kind=st.sampled_from(["uniform", "exponential", "tabulated"]),
       alpha=st.floats(0.05, 0.1), B=st.sampled_from([1.0, -1.0]), p_y=st.floats(-1.0, 1.0),
       rep=st.sampled_from(["first", "second"]), N=st.sampled_from(range(640, 4097, 128)))
def test_claims_hold_across_the_parameter_space(tables, kind, alpha, B, p_y, rep, N):
    # N = 512 keeps a negative zero mode that the FW sections refuse; at N = 640
    # and 768 spectrum_error and eigenvalue_match fail on resolution, so only the
    # claims that the grid's resolution does not set are asserted.  A table's
    # sign is B's
    params = {"uniform": {"B": B}, "exponential": {"B": B, "alpha": alpha},
              "tabulated": {"path": str(tables[B])}}[kind]
    cfg = RunConfig(profile_kind=kind, profile_params=params, p_y=p_y, rep=rep, grid_n=N)
    cfg.validate()
    report, _ = run("all", cfg)
    sections = report["sections"]
    for section, check in CLAIMS:
        assert sections[section]["checks"][check]["pass"], (section, check, sections[section])


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
# eB = 8 on N = 512 keeps a flagged k_0 = -7.1e-8 below -m^2, and p0 = m is its shell
@example(command="all", rep="first", eB=8.0, mass=1e-6, N=512, n_max=4, at="m")
# a single command whose section aborts: p0 = m is level 0's shell
@example(command="propagator", rep="first", eB=1.0, mass=1.0, N=1024, n_max=4, at="m")
# a weak field, sized in its own length |eB|^-1/2 = 3.2e4
@example(command="spectrum", rep="first", eB=1e-9, mass=1.0, N=256, n_max=1, at="0.3")
# a field whose potential overflows: the grid sizing refuses it, with no numpy warning
@example(command="spectrum", rep="first", eB=1e300, mass=1.0, N=256, n_max=1, at="0.3")
@given(command=st.sampled_from(sorted(cli._COMMANDS) + ["all"]),
       rep=st.sampled_from(["first", "second"]),
       eB=st.sampled_from([s * m for m in (1e-9, 1e-6, 1e-3, 1.0, 8.0, 1e3) for s in (1, -1)]),
       # 4.4e9 and 4.6e9 lie just under and just over eps * mass = tolerances.eig
       mass=st.sampled_from([1e-6, 1.0, 4.4e9, 4.6e9]),
       N=st.sampled_from([256, 512, 1024]), n_max=st.integers(1, 4),
       at=st.sampled_from(["0.3", "m", "shell", "shell+", "doubler"]))
def test_every_input_exits_0_1_or_2_with_the_files_its_code_promises(
        scratch, command, rep, eB, mass, N, n_max, at):
    # the exit-code contract, run in-process: 0 or 1 with a report and the CSV
    # of every section that ran without an error, or 2 with nothing written.
    # p0 is drawn on level 1's shell sqrt(2|eB| + m^2), 1.1e-3 above it, on
    # level 0's shell m, or on the grid's doubler pole sqrt((10/3)|eB| + m^2)
    shell = math.sqrt(2 * abs(eB) + mass * mass)
    p0 = {"0.3": 0.3, "m": mass, "shell": shell, "shell+": shell + 1.1e-3,
          "doubler": math.sqrt(10 / 3 * abs(eB) + mass * mass)}[at]
    out = scratch / "out"
    # "--eB=" keeps argparse from reading -1e-09 as an option
    argv = [command, "--rep", rep, f"--eB={eB!r}", "--mass", repr(mass), "--grid-n", str(N),
            "--levels", str(n_max), "--p0", repr(p0), "--out", str(out)]
    saved = {var: os.environ.get(var) for var in THREAD_VARS}
    stderr = io.StringIO()
    try:
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = cli.main(argv)
        assert code in (0, 1, 2), code
        assert not caught, [str(w.message) for w in caught]
        if code == 2:
            assert not out.exists()
            assert stderr.getvalue().startswith("rfw: ")
            return
        files = {path.name for path in out.iterdir()}
        report = json.loads((out / "report.json").read_text())
        sections = report["sections"] if command == "all" else {command: report}
        assert files == {"report.json"} | {SECTION_CSV[name] for name, section in sections.items()
                                           if name in SECTION_CSV and "error" not in section}
        assert (code == 0) == (report["status"] == "pass")
        if command == "propagator" and at == "m":
            # p0 = m is level 0's shell: the guard refuses it wherever the levels
            # build, and a single command's error sits at the report's top level
            assert report["status"] == "fail" and report["checks"] == {}
            assert "pole_sweep.csv" not in files
            assert report["error"].startswith(
                ("ConditioningError: ", "PairingError: ", "DiscretizationError: ")), report
    finally:
        shutil.rmtree(out, ignore_errors=True)
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
