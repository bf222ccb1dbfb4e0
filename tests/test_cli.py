"""End-to-end checks of the command-line front end (in-process)."""

from __future__ import annotations

import json
import math
import subprocess
import sys

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
    ],
    ids=["cos2pit-str", "cos2pit-null", "poly-str", "poly-null", "trig-huge",
         "family-huge-coeff", "float-n", "planar-zero-den", "trig-zero-den",
         "planar-string-list", "trig-string-list"],
)
def test_malformed_payloads_exit_2(tmp_path, capsys, kind, command, payload):
    spec = {"kind": kind, "command": command, "payload": payload}
    code, out = run_cli(tmp_path, spec)
    assert code == 2
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()


_BIG_PLANAR = {"n": 2, "P": ["1e155", "0", "0"], "Q": ["0", "1", "0"]}  # f reaches 1e310
_BIG_TRIG = {**_TRIG, "f": {"a": ["0", "1e400"], "b": ["1"]}}


@pytest.mark.parametrize(
    "kind,command,payload,out_file",
    [
        ("planar", "certify", _BIG_PLANAR, "certificate.json"),
        ("planar", "reduce", _BIG_PLANAR, "reduction.json"),
        ("abel", "certify", _BIG_TRIG, "certificate.json"),
    ],
    ids=["planar-certify", "planar-reduce", "trig-certify"],
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
    ],
    ids=["planar-scan", "planar-scan-grid", "planar-picard", "planar-picard-rho",
         "planar-crosscheck", "trig-scan", "trig-scan-grid", "trig-picard", "trig-picard-rho"],
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


def test_seed_flag_is_gone(tmp_path, capsys):
    spec = {"kind": "planar", "command": "certify", "payload": CUBIC_PAYLOAD}
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, spec, "out", "--seed", "1")
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


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
    )
    assert proc.returncode == 3
    assert "BlowUp" in proc.stderr


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
    )
    assert proc.returncode == 0
    assert "certified_center" in proc.stdout
    assert (tmp_path / "out" / "certificate.json").exists()
