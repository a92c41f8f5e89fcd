import json

import numpy as np
import pytest

from hypokit import cli, gallery, lorentz
from hypokit import operator_core as core


def test_simulate_final_field_is_the_last_csv_row(tmp_path):
    curve, final = tmp_path / "curve.csv", tmp_path / "final.json"
    rc = cli.main([
        "lorentz", "simulate", "--random", "--N", "2", "--M", "4",
        "--final-field", str(final), "--output", str(curve),
    ])
    assert rc == 0
    t, distance, _ = curve.read_text().strip().splitlines()[-1].split(",")
    field = lorentz.field_from_json(json.loads(final.read_text()))
    assert float(t) == 30.0
    assert float(distance) == field.distance_to_equilibrium()


def test_verify_cubic_bound_is_read_off_the_sandwich(tmp_path):
    out = tmp_path / "verify.json"
    rc = cli.main([
        "lorentz", "verify", "--N", "2", "--M", "8", "--M-constants", "32",
        "--steps", "6", "--output", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    cubic, sandwich = doc["cubic_bound"], doc["sandwich"]
    assert abs(cubic["worst_margin"] - (sandwich["worst_upper_margin"] - 1e-9)) <= 1e-15
    assert cubic["samples"] == len(sandwich["times"]) == 6
    assert cubic["modes"] == [1.0, 2.0]


def _analyze(tmp_path, C):
    src, out = tmp_path / "input.json", tmp_path / "analyze.json"
    src.write_text(json.dumps(core.matrix_to_json(C)))
    rc = cli.main(["analyze", "--input", str(src), "--output", str(out)])
    return rc, json.loads(out.read_text())["audit"]


def test_analyze_ek40_reports_the_disagreement(tmp_path):
    # the power families lose the index of E_40 in roundoff; the staircase
    # keeps it, so the audit must not claim agreement
    rc, audit = _analyze(tmp_path, gallery.ek_matrix(40))
    assert rc == 3
    assert audit["index_per_method"]["staircase"] == 39
    assert audit["agree"] is False


def test_analyze_ck2_all_methods_agree(tmp_path):
    rc, audit = _analyze(tmp_path, gallery.ck_matrix(2))
    assert rc == 0
    assert audit["agree"] is True
    assert audit["index_per_method"] == {
        "c_powers_right": 1, "c_powers_left": 1, "j_powers": 1, "commutators": 1, "staircase": 1,
    }


def _run(tmp_path, command, C, *extra):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(core.matrix_to_json(C)))
    return cli.main([command, "--input", str(src), "--output", str(tmp_path / "out"), *extra])


def test_non_accretive_input_is_invalid_for_analyze_and_staircase(tmp_path):
    C = np.diag([1.0, -1.0])
    assert _run(tmp_path, "analyze", C) == 1
    assert _run(tmp_path, "staircase", C) == 1


def test_decay_overflow_is_a_numerical_failure(tmp_path, capsys):
    rc = _run(tmp_path, "decay", np.diag([-1.0, 1.0]), "--tmax", "1000", "--steps", "10")
    assert rc == 2
    assert "overflow" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["lorentz", "kappa", "--M", "0"],
        ["lorentz", "lyapunov", "--N", "0"],
        ["lorentz", "lyapunov", "--N", "-2"],
        ["decay", "--steps", "-5"],
        ["lorentz", "simulate", "--random", "--steps", "-3"],
        ["lorentz", "simulate", "--random", "--N", "-1"],
        ["lorentz", "verify", "--steps", "-3"],
        ["decay", "--tmax", "nan"],
        ["decay", "--tmax", "inf"],
        ["lorentz", "simulate", "--random", "--tmax", "nan"],
        ["lorentz", "simulate", "--random", "--tmax", "inf"],
        # about 71 PiB: numpy refuses the allocation at once
        ["lorentz", "kappa", "--M", "100000000"],
    ],
    ids=" ".join,
)
def test_invalid_sizes_exit_1_without_traceback(tmp_path, capsys, argv):
    if argv[0] == "decay":
        src = tmp_path / "input.json"
        src.write_text(json.dumps(core.matrix_to_json(gallery.ck_matrix(2))))
        argv = [*argv, "--input", str(src)]
    assert cli.main([*argv, "--output", str(tmp_path / "out")]) == 1
    assert "hypokit: invalid input:" in capsys.readouterr().err


def test_simulate_overflowing_time_is_a_numerical_failure(tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = ["lorentz", "simulate", "--random", "--N", "1", "--M", "2", "--steps", "2",
            "--tmax", "1e100", "--output", str(out)]
    assert cli.main(argv) == 2
    assert "hypokit: numerical failure:" in capsys.readouterr().err
    assert not out.exists()
