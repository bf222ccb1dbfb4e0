"""End-to-end checks of the command-line front end (in-process)."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelcenter import PlanarSystem, TrigPoly, abel_from_planar, cli
from abelcenter.cli import main

CUBIC_PAYLOAD = {"n": 3, "P": ["0", "2", "0", "0"], "Q": ["0", "0", "1", "0"]}


def run_cli(tmp_path, spec_dict, out_name="out", *flags):
    spec_path = tmp_path / f"{out_name}.json"
    spec_path.write_text(json.dumps(spec_dict))
    out_dir = tmp_path / out_name
    code = main(["--spec", str(spec_path), "--out", str(out_dir), *flags])
    return code, out_dir


# ----------------------------------------------------------------------
# happy paths


def test_certify_planar(tmp_path):
    spec = {"kind": "planar", "command": "certify", "payload": CUBIC_PAYLOAD}
    code, out = run_cli(tmp_path, spec)
    assert code == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"] == "certified_center"
    assert cert["basis"] == "planar_parity"
    assert cert["evidence"]["cube_ratio"] == "2/9"


def test_certify_abel_family(tmp_path):
    spec = {
        "kind": "abel",
        "command": "certify",
        "payload": {"family": "cos2pit", "f": [0, 1], "g": [0, 1]},
    }
    code, out = run_cli(tmp_path, spec)
    assert code == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"] == "inconclusive"


def test_reduce_emits_exact_coefficients(tmp_path):
    spec = {"kind": "planar", "command": "reduce", "payload": CUBIC_PAYLOAD}
    code, out = run_cli(tmp_path, spec)
    assert code == 0
    red = json.loads((out / "reduction.json").read_text())
    assert red["n"] == 3
    assert red["A"] == {"a": ["0"] * 5, "b": ["0", "3/4", "0", "1/8"]}
    assert red["B"] == {"a": ["-1/8", "0", "0", "0", "1/8"], "b": ["0"] * 4}
    assert red["g"]["b"] == ["0", "3/2", "0", "3/4"]
    assert red["mean_A"] == "0"
    assert red["parities"] == {"A": "odd", "B": "even", "f": "odd", "g": "odd"}
    assert red["half_width"] == pytest.approx(math.pi)


def test_scan_planar(tmp_path):
    spec = {
        "kind": "planar",
        "command": "scan",
        "payload": CUBIC_PAYLOAD,
        "config": {"rho_grid": [0.005, 0.01]},
    }
    code, out = run_cli(tmp_path, spec)
    assert code == 0
    scan = json.loads((out / "scan.json").read_text())
    assert scan["classification"] == "center_evidence"
    lines = (out / "scan.csv").read_text().strip().split("\n")
    assert lines[0] == "rho,pi_rho,d_rho"
    assert len(lines) == 3


def test_reduction_output_reingests_as_scalar_job(tmp_path):
    grid = [0.005, 0.01, 0.02]
    code, out1 = run_cli(
        tmp_path,
        {"kind": "planar", "command": "reduce", "payload": CUBIC_PAYLOAD},
        "reduce",
    )
    assert code == 0
    reduction = json.loads((out1 / "reduction.json").read_text())

    code, out2 = run_cli(
        tmp_path,
        {
            "kind": "planar",
            "command": "scan",
            "payload": CUBIC_PAYLOAD,
            "config": {"rho_grid": grid},
        },
        "scan_planar",
    )
    assert code == 0
    code, out3 = run_cli(
        tmp_path,
        {
            "kind": "abel",
            "command": "scan",
            "payload": reduction,
            "config": {"rho_grid": grid},
        },
        "scan_abel",
    )
    assert code == 0
    assert (out2 / "scan.json").read_text() == (out3 / "scan.json").read_text()
    assert (out2 / "scan.csv").read_text() == (out3 / "scan.csv").read_text()


def test_runs_are_deterministic(tmp_path):
    spec = {
        "kind": "planar",
        "command": "scan",
        "payload": CUBIC_PAYLOAD,
        "config": {"rho_grid": [0.005, 0.01]},
    }
    _, out1 = run_cli(tmp_path, spec, "first")
    _, out2 = run_cli(tmp_path, spec, "second")
    assert (out1 / "scan.csv").read_text() == (out2 / "scan.csv").read_text()
    assert (out1 / "scan.json").read_text() == (out2 / "scan.json").read_text()


def test_crosscheck_planar(tmp_path):
    spec = {
        "kind": "planar",
        "command": "crosscheck",
        "payload": CUBIC_PAYLOAD,
        "config": {"r0": 0.05, "samples": 32},
    }
    code, out = run_cli(tmp_path, spec)
    assert code == 0
    data = json.loads((out / "crosscheck.json").read_text())
    assert data["r0"] == 0.05
    assert data["samples"] == 32
    assert data["defect"] < 1e-6


def test_picard_planar_default_rho(tmp_path):
    spec = {"kind": "planar", "command": "picard", "payload": CUBIC_PAYLOAD}
    code, out = run_cli(tmp_path, spec)
    assert code == 0
    data = json.loads((out / "picard.json").read_text())
    assert 0 < data["rho"] < 0.5
    assert data["evenness_defect"] < 1e-8
    lines = (out / "picard.csv").read_text().strip().split("\n")
    assert lines[0] == "t,x"


def test_picard_abel_with_explicit_rho(tmp_path):
    spec = {
        "kind": "abel",
        "command": "picard",
        "payload": {"family": "poly", "f": [0, 1], "g": [0, 1]},
        "config": {"rho": 0.05},
    }
    code, out = run_cli(tmp_path, spec)
    assert code == 0
    data = json.loads((out / "picard.json").read_text())
    assert data["rho"] == 0.05


def test_rho_grid_flag_overrides_config(tmp_path):
    spec = {
        "kind": "planar",
        "command": "scan",
        "payload": CUBIC_PAYLOAD,
        "config": {"rho_grid": [0.005]},
    }
    code, out = run_cli(tmp_path, spec, "out", "--rho-grid", "0.005,0.01,0.02")
    assert code == 0
    lines = (out / "scan.csv").read_text().strip().split("\n")
    assert len(lines) == 4


def test_tolerance_flags_are_accepted(tmp_path):
    spec = {
        "kind": "planar",
        "command": "scan",
        "payload": CUBIC_PAYLOAD,
        "config": {"rho_grid": [0.005]},
    }
    code, _ = run_cli(
        tmp_path, spec, "out", "--rel-tol", "1e-9", "--abs-tol", "1e-11", "--m", "1.0"
    )
    assert code == 0


# ----------------------------------------------------------------------
# failure modes


def test_missing_spec_file(tmp_path):
    code = main(["--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert code == 2


def test_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--spec", str(bad), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "mutation",
    [
        {"kind": "other"},
        {"command": "explode"},
        {"payload": ["not", "an", "object"]},
        {"config": {"unknown_knob": 1}},
    ],
)
def test_malformed_jobspec_fields(tmp_path, mutation):
    spec = {"kind": "planar", "command": "certify", "payload": CUBIC_PAYLOAD}
    spec.update(mutation)
    code, _ = run_cli(tmp_path, spec)
    assert code == 2


def test_degree_mismatch_payload(tmp_path):
    spec = {
        "kind": "planar",
        "command": "certify",
        "payload": {"n": 3, "P": ["0", "2"], "Q": ["0", "0", "1", "0"]},
    }
    code, _ = run_cli(tmp_path, spec)
    assert code == 2


def test_reduce_requires_planar_kind(tmp_path):
    spec = {
        "kind": "abel",
        "command": "reduce",
        "payload": {"family": "poly", "f": [0, 1], "g": [0, 1]},
    }
    code, _ = run_cli(tmp_path, spec)
    assert code == 2


def test_crosscheck_requires_planar_kind(tmp_path):
    spec = {
        "kind": "abel",
        "command": "crosscheck",
        "payload": {"family": "poly", "f": [0, 1], "g": [0, 1]},
    }
    code, _ = run_cli(tmp_path, spec)
    assert code == 2


def test_unknown_family(tmp_path):
    spec = {
        "kind": "abel",
        "command": "certify",
        "payload": {"family": "chebyshev", "f": [1], "g": [1]},
    }
    code, _ = run_cli(tmp_path, spec)
    assert code == 2


def test_bad_rho_grid_flag(tmp_path):
    spec = {"kind": "planar", "command": "scan", "payload": CUBIC_PAYLOAD}
    code, _ = run_cli(tmp_path, spec, "out", "--rho-grid", "abc,def")
    assert code == 2


@pytest.mark.parametrize(
    "command,config",
    [
        ("crosscheck", {"r0": "nan"}),
        ("scan", {"rho_grid": ["x"]}),
        ("picard", {"grid_points": 8.5}),
        ("crosscheck", {"r0": float("nan")}),
        ("crosscheck", {"samples": True}),
        ("scan", {"rho_grid": [0.01, float("inf")]}),
        ("picard", {"rho": 10**400}),
        ("picard", {"picard_max_iter": 0}),
        ("picard", {"picard_tol": -1}),
        ("picard", {"picard_tol": 0}),
        ("certify", {"seed": 3}),
        # sizes numpy refuses at once, never ones it could allocate
        ("picard", {"grid_points": 10**15}),
        ("crosscheck", {"samples": 10**15}),
    ],
)
def test_malformed_config_values_exit_2(tmp_path, capsys, command, config):
    spec = {"kind": "planar", "command": command, "payload": CUBIC_PAYLOAD, "config": config}
    code, out = run_cli(tmp_path, spec)
    assert code == 2
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()


_TRIG = {"f": {"a": ["0", "0"], "b": ["1"]}, "g": {"a": ["0", "0"], "b": ["1"]}}


def _family(name: str, half_width) -> dict:
    return {"family": name, "f": [0, 1], "g": [0, 1], "half_width": half_width}


@pytest.mark.parametrize(
    "kind,command,payload",
    [
        ("abel", "certify", _family("cos2pit", "abc")),
        ("abel", "scan", _family("cos2pit", None)),
        ("abel", "certify", _family("poly", "abc")),
        ("abel", "picard", _family("poly", None)),
        ("abel", "certify", {**_TRIG, "half_width": 10**400}),
        ("abel", "certify", {"family": "cos2pit", "f": [10**400], "g": [0, 1]}),
        ("planar", "certify", {**CUBIC_PAYLOAD, "n": 3.7}),
        ("planar", "certify", {**CUBIC_PAYLOAD, "P": ["1/0", "2", "0", "0"]}),
        ("abel", "certify", {**_TRIG, "f": {"a": ["1/0"], "b": []}}),
        ("planar", "certify", {**CUBIC_PAYLOAD, "P": "0200"}),
        ("abel", "certify", {**_TRIG, "f": {"a": "12", "b": []}}),
        # below the smallest normal float the Picard grid would repeat nodes
        ("abel", "picard", {**_TRIG, "half_width": 1e-320}),
        ("abel", "picard", _family("poly", 1e-320)),
        # a JSON true is not the number 1
        ("planar", "reduce", {**CUBIC_PAYLOAD, "P": [True, "2", "0", "0"]}),
        ("abel", "certify", {**_TRIG, "f": {"a": ["0", True], "b": ["1"]}}),
        ("abel", "certify", {"family": "poly", "f": [0, True], "g": [0, 1]}),
        ("abel", "certify", _family("cos2pit", True)),
        # iterated, the string would read as the coefficients [1, 2]
        ("abel", "certify", {"family": "poly", "f": "12", "g": [1]}),
    ],
    ids=["cos2pit-str", "cos2pit-null", "poly-str", "poly-null", "trig-huge",
         "family-huge-coeff", "float-n", "planar-zero-den", "trig-zero-den",
         "planar-string-list", "trig-string-list", "trig-subnormal-width",
         "poly-subnormal-width", "planar-bool", "trig-bool", "family-bool",
         "bool-width", "family-string-list"],
)
def test_malformed_payloads_exit_2(tmp_path, capsys, kind, command, payload):
    spec = {"kind": kind, "command": command, "payload": payload}
    code, out = run_cli(tmp_path, spec)
    assert code == 2
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()


_BIG_PLANAR = {"n": 2, "P": ["1e155", "0", "0"], "Q": ["0", "1", "0"]}  # f reaches 1e310
_BIG_TRIG = {**_TRIG, "f": {"a": ["0", "1e400"], "b": ["1"]}}
_BIG_POLY = {"family": "poly", "f": ["0", "0", "1"], "g": ["1"], "half_width": 1e200}


@pytest.mark.parametrize(
    "kind,command,payload,out_file",
    [
        ("planar", "certify", _BIG_PLANAR, "certificate.json"),
        ("planar", "reduce", _BIG_PLANAR, "reduction.json"),
        ("abel", "certify", _BIG_TRIG, "certificate.json"),
        ("abel", "certify", _BIG_POLY, "certificate.json"),
    ],
    ids=["planar-certify", "planar-reduce", "trig-certify", "poly-certify"],
)
def test_exact_commands_take_coefficients_beyond_floats(tmp_path, kind, command, payload,
                                                        out_file):
    code, out = run_cli(tmp_path, {"kind": kind, "command": command, "payload": payload})
    assert code == 0
    data = json.loads((out / out_file).read_text())
    if command == "reduce":
        f = TrigPoly.from_json_dict(data["f"])
        assert f == abel_from_planar(PlanarSystem.from_json_dict(payload)).f
        assert f.linf_bound() == math.inf
    else:
        assert data["verdict"] == "inconclusive"


@pytest.mark.parametrize(
    "kind,command,payload,config",
    [
        ("planar", "scan", _BIG_PLANAR, {}),
        ("planar", "scan", _BIG_PLANAR, {"rho_grid": [0.01]}),
        ("planar", "picard", _BIG_PLANAR, {}),
        ("planar", "picard", _BIG_PLANAR, {"rho": 0.01}),
        ("planar", "crosscheck", _BIG_PLANAR, {}),
        ("abel", "scan", _BIG_TRIG, {}),
        ("abel", "scan", _BIG_TRIG, {"rho_grid": [0.01]}),
        ("abel", "picard", _BIG_TRIG, {}),
        ("abel", "picard", _BIG_TRIG, {"rho": 0.01}),
        ("abel", "scan", _BIG_POLY, {}),
        ("abel", "picard", _BIG_POLY, {}),
    ],
    ids=["planar-scan", "planar-scan-grid", "planar-picard", "planar-picard-rho",
         "planar-crosscheck", "trig-scan", "trig-scan-grid", "trig-picard", "trig-picard-rho",
         "poly-scan", "poly-picard"],
)
def test_numeric_commands_reject_coefficients_beyond_floats(tmp_path, capsys, kind, command,
                                                            payload, config):
    spec = {"kind": kind, "command": command, "payload": payload, "config": config}
    code, out = run_cli(tmp_path, spec)
    assert code == 2
    err = capsys.readouterr().err
    assert "validation error" in err and ("finite" in err or "float range" in err)
    assert not out.exists()


@pytest.mark.parametrize(
    "payload",
    [
        {"family": "cos2pit", "f": [0, "1e308"], "g": [0, "1e308"]},
        {"family": "poly", "f": [0, 1], "g": [0, 1], "half_width": 1e300},
    ],
    ids=["cos2pit", "poly"],
)
def test_default_grid_at_zero_radius_exits_2(tmp_path, capsys, payload):
    code, out = run_cli(tmp_path, {"kind": "abel", "command": "scan", "payload": payload})
    assert code == 2
    assert "the admissible radius 0 leaves no rho to scan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "payload",
    [
        {"family": "cos2pit", "f": [0, "1e308"], "g": [0, "1e308"]},
        {"family": "poly", "f": [0, 1], "g": [0, 1], "half_width": 1e300},
    ],
    ids=["cos2pit", "poly"],
)
def test_default_picard_rho_at_zero_radius_exits_2(tmp_path, capsys, payload):
    code, out = run_cli(tmp_path, {"kind": "abel", "command": "picard", "payload": payload})
    assert code == 2
    assert "the admissible radius 0 leaves no rho" in capsys.readouterr().err
    assert not out.exists()


def test_trig_half_width_strings_stay_accepted(tmp_path):
    spec = {"kind": "abel", "command": "certify", "payload": {**_TRIG, "half_width": "3.0"}}
    code, out = run_cli(tmp_path, spec)
    assert code == 0 and (out / "certificate.json").exists()


@pytest.mark.parametrize("flags", [("--rel-tol", "nan"), ("--rho-grid", "0.01,nan")])
def test_non_finite_flags_exit_2(tmp_path, flags):
    spec = {"kind": "planar", "command": "scan", "payload": CUBIC_PAYLOAD}
    code, _ = run_cli(tmp_path, spec, "out", *flags)
    assert code == 2


@pytest.mark.parametrize(
    "command,flags",
    [
        ("certify", ("--rho-grid", "abc")),
        ("reduce", ("--rho-grid", "abc")),
        ("crosscheck", ("--rho-grid", "abc")),
        ("picard", ("--rho-grid", "")),
        ("certify", ("--rho-grid", "0.01,nan")),
    ],
)
def test_malformed_flags_exit_2_whatever_the_command(tmp_path, capsys, command, flags):
    # flags are checked as config values, whether or not the command reads them
    spec = {"kind": "planar", "command": command, "payload": CUBIC_PAYLOAD}
    code, out = run_cli(tmp_path, spec, "out", *flags)
    assert code == 2
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()


def test_seed_flag_is_gone(tmp_path, capsys):
    spec = {"kind": "planar", "command": "certify", "payload": CUBIC_PAYLOAD}
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, spec, "out", "--seed", "1")
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def _src_env() -> dict:
    """The environment with this checkout's ``src/`` first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.mark.parametrize("r0", [1e150, 1e300])
def test_crosscheck_at_huge_radius_fails_fast(tmp_path, r0):
    # the polar right-hand side is NaN at the start; scipy would step forever
    spec_path = tmp_path / "job.json"
    spec = {"kind": "planar", "command": "crosscheck", "payload": CUBIC_PAYLOAD}
    spec_path.write_text(json.dumps({**spec, "config": {"r0": r0}}))
    argv = ["--spec", str(spec_path), "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-m", "abelcenter", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=_src_env(),
    )
    assert proc.returncode == 3
    assert "BlowUp" in proc.stderr


@pytest.mark.filterwarnings("error")
def test_overflowing_parity_samples_leave_stderr_clean(tmp_path, capsys):
    # the declared parity of t^2 is spot-checked where the samples overflow to inf
    spec = {"kind": "abel", "command": "certify", "payload": _BIG_POLY}
    code, out = run_cli(tmp_path, spec)
    assert code == 0
    assert capsys.readouterr().err == ""
    assert json.loads((out / "certificate.json").read_text())["verdict"] == "inconclusive"


_COS2PIT = {"family": "cos2pit", "f": [0, 0, 1], "g": [1, "1/2"]}
_POLY = {"family": "poly", "f": [0, 1], "g": [0, 1]}


@pytest.mark.parametrize(
    "kind,command,payload",
    [("planar", command, CUBIC_PAYLOAD)
     for command in ("certify", "reduce", "scan", "crosscheck", "picard")]
    + [("abel", command, payload)
       for payload in (_COS2PIT, _POLY, _TRIG) for command in ("certify", "scan", "picard")],
    ids=["planar-certify", "planar-reduce", "planar-scan", "planar-crosscheck", "planar-picard",
         "cos2pit-certify", "cos2pit-scan", "cos2pit-picard", "poly-certify", "poly-scan",
         "poly-picard", "trig-certify", "trig-scan", "trig-picard"],
)
def test_jobs_never_call_the_reference_eval(tmp_path, monkeypatch, kind, command, payload):
    # TrigPoly.eval is the per-term reference the tests compare against
    def refuse(self, t):
        raise AssertionError("package code called TrigPoly.eval")

    monkeypatch.setattr(TrigPoly, "eval", refuse)
    code, _ = run_cli(tmp_path, {"kind": kind, "command": command, "payload": payload})
    assert code == 0


_BAD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400, {}]),
    st.integers(-3, 3),
    st.floats(-1, 1),
    st.lists(st.one_of(st.floats(allow_nan=True), st.text(max_size=2)), max_size=2),
)


@given(
    command=st.sampled_from(("certify", "reduce", "scan", "crosscheck", "picard")),
    config=st.dictionaries(
        st.sampled_from(sorted(cli._CONFIG_FIELDS | cli._EXTRA_CONFIG)),
        _BAD_VALUES,
        min_size=1,
        max_size=2,
    ),
)
@settings(max_examples=40, deadline=None)
@pytest.mark.filterwarnings("ignore")
def test_malformed_config_never_crashes(tmp_path_factory, command, config):
    tmp_path = tmp_path_factory.mktemp("job")
    spec = {"kind": "planar", "command": command, "payload": CUBIC_PAYLOAD, "config": config}
    code, _ = run_cli(tmp_path, spec)
    assert code in (0, 2, 3)


@pytest.mark.filterwarnings("ignore:initial value")
def test_solver_failure_exit_code(tmp_path):
    spec = {
        "kind": "abel",
        "command": "scan",
        "payload": {"family": "poly", "f": [], "g": [5.0]},
        "config": {"rho_grid": [0.5]},
    }
    code, _ = run_cli(tmp_path, spec)
    assert code == 3


# ----------------------------------------------------------------------
# module entry point


def test_module_invocation(tmp_path):
    spec_path = tmp_path / "job.json"
    spec_path.write_text(
        json.dumps({"kind": "planar", "command": "certify", "payload": CUBIC_PAYLOAD})
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "abelcenter",
            "--spec",
            str(spec_path),
            "--out",
            str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0
    assert "certified_center" in proc.stdout
    assert (tmp_path / "out" / "certificate.json").exists()


_SCIPY_PROBE = """
import sys
from abelcenter.cli import main
*exact, numeric = sys.argv[1:]
for spec in exact:
    assert main(["--spec", spec, "--out", spec + ".out"]) == 0
print("scipy modules:", sorted(name for name in sys.modules if name.startswith("scipy")))
assert main(["--spec", numeric, "--out", numeric + ".out"]) == 0
"""


def test_exact_commands_leave_scipy_unimported(tmp_path):
    jobs = [("planar", "certify", CUBIC_PAYLOAD), ("planar", "reduce", CUBIC_PAYLOAD),
            ("abel", "certify", _TRIG), ("planar", "scan", CUBIC_PAYLOAD)]
    specs = []
    for i, (kind, command, payload) in enumerate(jobs):
        specs.append(tmp_path / f"job{i}.json")
        specs[-1].write_text(json.dumps({"kind": kind, "command": command, "payload": payload}))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, *map(str, specs)],
        capture_output=True, text=True, timeout=120, env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "scipy modules: []" in proc.stdout.splitlines()
    assert (tmp_path / "job3.json.out" / "scan.csv").exists()


_NUMERIC_PROBE = """
import sys
from abelcenter.cli import main
for spec in sys.argv[1:]:
    assert main(["--spec", spec, "--out", spec + ".out"]) == 0, spec
print("scipy modules:", sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def test_numeric_commands_leave_scipy_unimported(tmp_path):
    # DOP853's tableau is read from scipy's file without importing scipy
    jobs = [("planar", command, CUBIC_PAYLOAD) for command in ("scan", "crosscheck", "picard")]
    families = [_TRIG, {"family": "cos2pit", "f": [0, 1], "g": [0, 1]},
                {"family": "poly", "f": [0, 1], "g": [0, 1]}]
    jobs += [("abel", command, payload) for payload in families for command in ("scan", "picard")]
    specs = []
    for i, (kind, command, payload) in enumerate(jobs):
        specs.append(tmp_path / f"job{i}.json")
        specs[-1].write_text(json.dumps({"kind": kind, "command": command, "payload": payload}))
    proc = subprocess.run(
        [sys.executable, "-c", _NUMERIC_PROBE, *map(str, specs)],
        capture_output=True, text=True, timeout=120, env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "scipy modules: []" in proc.stdout.splitlines()
