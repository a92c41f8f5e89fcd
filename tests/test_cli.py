import cProfile
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hypokit
from hypokit import cli, decay, gallery, lorentz
from hypokit import operator_core as core
from hypokit.errors import NoDecayError

from helpers import CLI_COMMANDS


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
    assert cubic["ok"] is sandwich["ok"] is True
    slack = lorentz._CUBIC_SLACK
    assert abs(cubic["worst_margin"] - (sandwich["worst_upper_margin"] - slack)) <= 1e-15
    assert cubic["samples"] == len(sandwich["times"]) == 6
    assert cubic["modes"] == [1.0, 2.0]


def test_verify_fails_both_checks_together_when_c_is_too_large(tmp_path, monkeypatch):
    # c t^3 at t = tau becomes about 1e-8: above the slack and the measured
    # drop 1 - ||P(tau)||, so the cubic bound fails, and the sandwich with it
    appendix_constants = lorentz.appendix_constants

    def scaled_constants(M):
        consts = appendix_constants(M)
        return dataclasses.replace(consts, c=consts.c * 1e15)

    monkeypatch.setattr(lorentz, "appendix_constants", scaled_constants)
    out = tmp_path / "verify.json"
    rc = cli.main([
        "lorentz", "verify", "--N", "2", "--M", "8", "--M-constants", "32",
        "--steps", "6", "--output", str(out),
    ])
    assert rc == 3
    doc = json.loads(out.read_text())
    assert doc["cubic_bound"]["ok"] is doc["sandwich"]["ok"] is False
    assert doc["cubic_bound"]["worst_margin"] < -lorentz._CUBIC_SLACK
    assert doc["sandwich"]["worst_upper_margin"] < 0.0


def test_gallery_ek_rescaled_exits_2_when_a_block_fails_its_check(tmp_path, monkeypatch, capsys):
    ek_rescale_factor = gallery.ek_rescale_factor
    monkeypatch.setattr(
        gallery, "ek_rescale_factor",
        lambda k: dataclasses.replace(ek_rescale_factor(k), ok=k != 2),
    )
    out = tmp_path / "out.json"
    assert cli.main(["gallery", "--name", "ek_rescaled", "--blocks", "3", "--output", str(out)]) == 2
    assert "hypokit: numerical failure: rescaling of E_2 failed" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.setattr(
        gallery, "ek_rescale_factor",
        lambda k: dataclasses.replace(ek_rescale_factor(k), boundary_warning=True),
    )
    assert cli.main(["gallery", "--name", "ek_rescaled", "--blocks", "1", "--output", str(out)]) == 2
    assert not out.exists()


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


@pytest.mark.parametrize("C", [gallery.ck_matrix(3), gallery.ek_matrix(8), gallery.ek_matrix(16)],
                         ids=["ck_3", "ek_8", "ek_16"])
def test_analyze_fit_is_the_full_grid_fit(tmp_path, C):
    # analyze evaluates only the part of its grid that the fit can read;
    # the fit must be the one of the whole 220-point grid
    src, out = tmp_path / "input.json", tmp_path / "analyze.json"
    src.write_text(json.dumps(core.matrix_to_json(C)))
    cli.main(["analyze", "--input", str(src), "--output", str(out)])
    A = core.matrix_from_json(json.loads(src.read_text()))
    s = core.spectral_norm(A)
    curve = decay.propagator_norm_curve(A, np.geomspace(1e-4 / s, 10.0 / s, 220))
    try:
        expected = json.loads(json.dumps(decay.fit_short_time(curve).to_json_dict()))
    except NoDecayError:
        expected = None
    assert json.loads(out.read_text())["short_time_fit"] == expected
    assert (expected is None) == (C.shape[0] == 16)


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
        ["lorentz", "simulate", "--random", "--seed", "-1"],
        ["lorentz", "verify", "--steps", "-3"],
        ["decay", "--tmax", "nan"],
        ["decay", "--tmax", "inf"],
        ["lorentz", "simulate", "--random", "--tmax", "nan"],
        ["lorentz", "simulate", "--random", "--tmax", "inf"],
        # about 71 PiB: numpy refuses the allocation at once
        ["lorentz", "kappa", "--M", "100000000"],
        # a relative rank cut outside (0, 1) and a threshold that is not
        # positive and finite decide nothing
        *([command, "--tol-rank", tol] for command in ("analyze", "staircase")
          for tol in ("inf", "nan", "0", "-1", "1")),
        ["analyze", "--tol-kappa", "nan"],
        ["analyze", "--tol-kappa", "inf"],
    ],
    ids=" ".join,
)
def test_invalid_sizes_exit_1_without_traceback(tmp_path, capsys, argv):
    if argv[0] in ("decay", "analyze", "staircase"):
        src = tmp_path / "input.json"
        src.write_text(json.dumps(core.matrix_to_json(gallery.ck_matrix(2))))
        argv = [*argv, "--input", str(src)]
    assert cli.main([*argv, "--output", str(tmp_path / "out")]) == 1
    assert "hypokit: invalid input:" in capsys.readouterr().err


_GOOD_COEFF = {"n": [0, 1], "j": 1, "re": 1.0, "im": 0.0}


@pytest.mark.parametrize(
    "argv, obj, message",
    [
        # a 2x2 matrix whose entry 2 is malformed; the other entries are valid
        *((["decay"], {"n_rows": 2, "n_cols": 2, "entries": [1.0, [0.0, 1.0], bad, 2]},
           "entry 2 is not a number")
          for bad in ([1, 2, 3], "ab", None, True, [1.0, False], [1.0, "x"], 10**400)),
        *((["decay"], {"n_rows": rows, "n_cols": 2, "entries": entries}, "malformed matrix object")
          for rows, entries in (("x", []), (1, 5), (1.5, [1, 2]), (True, [1, 2]), (None, []))),
        (["decay"], [1, 2], "malformed matrix object"),
        # a field whose coefficient 1 is malformed
        *((["lorentz", "simulate"], {"N": 1, "M": 2, "coeffs": [_GOOD_COEFF, bad]},
           "coefficient 1 is")
          for bad in ({**_GOOD_COEFF, "n": [0]}, {**_GOOD_COEFF, "re": "x"},
                      {**_GOOD_COEFF, "j": None}, {**_GOOD_COEFF, "j": 1.5},
                      {**_GOOD_COEFF, "n": [0, True]}, {**_GOOD_COEFF, "im": float("nan")},
                      {**_GOOD_COEFF, "re": "1.5"}, {**_GOOD_COEFF, "re": True},
                      {**_GOOD_COEFF, "im": False},
                      {"n": [0, 1], "j": 1}, 7)),
        *((["lorentz", "simulate"], {"N": n, "M": 2, "coeffs": coeffs}, "malformed field object")
          for n, coeffs in ((1, 3), ("x", []), (1.5, []), (False, []))),
        (["lorentz", "simulate"], {"N": 1, "coeffs": []}, "malformed field object"),
    ],
)
def test_malformed_json_entries_exit_1_without_traceback(tmp_path, capsys, argv, obj, message):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert cli.main([*argv, "--input", str(src), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("hypokit: invalid input:") and message in err
    assert "Traceback" not in err and not out.exists()


_CK2 = ["gallery", "--name", "ck", "--k", "2"]


@pytest.mark.parametrize(
    "argv, prefix",
    [
        # {file} is a regular file, so a path under it is no path at all
        ([*_CK2, "--output", "{file}/x.json"], "hypokit: cannot write output:"),
        (["analyze", "--input", "{file}/x.json"], "hypokit: cannot read input:"),
        (["lorentz", "simulate", "--random", "--N", "1", "--M", "2",
          "--final-field", "{file}/f.json"], "hypokit: cannot write output:"),
        (["analyze", "--input", "{latin1}"], "hypokit: cannot read input:"),
        ([*_CK2, "--output", "{dir}/missing/x.json"], "hypokit: cannot write output:"),
        ([*_CK2, "--output", "{dir}"], "hypokit: cannot write output:"),
    ],
    ids=["output-under-file", "input-under-file", "final-field-under-file",
         "input-not-utf8", "output-in-missing-dir", "output-is-dir"],
)
def test_file_errors_exit_1_without_traceback(tmp_path, capsys, argv, prefix):
    (tmp_path / "file").write_text("")
    (tmp_path / "latin1.json").write_bytes('{"n_rows": "\xe9"}'.encode("latin-1"))
    paths = {"file": tmp_path / "file", "latin1": tmp_path / "latin1.json", "dir": tmp_path}
    argv = [a.format(**paths) for a in argv]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert "Traceback" not in err


@pytest.mark.parametrize("existing", [None, "t,distance,bound\n"], ids=["new", "existing"])
def test_failed_final_field_leaves_the_csv_as_it_was(tmp_path, capsys, existing):
    # the CSV is written, then the final field fails: neither may land
    (tmp_path / "file").write_text("")
    out = tmp_path / "out.csv"
    if existing is not None:
        out.write_text(existing)
    argv = ["lorentz", "simulate", "--random", "--N", "1", "--M", "2",
            "--output", str(out), "--final-field", str(tmp_path / "file" / "f.json")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("hypokit: cannot write output:")
    assert (out.read_text() if out.exists() else None) == existing
    left = sorted(p.name for p in tmp_path.iterdir())
    assert left == (["file"] if existing is None else ["file", "out.csv"])


def test_failed_write_keeps_the_existing_output(tmp_path):
    # a file-size limit below the output's size makes the write itself fail
    pytest.importorskip("resource")
    out = tmp_path / "out.json"
    out.write_text("old")
    code = (
        "import resource, signal, sys\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        "resource.setrlimit(resource.RLIMIT_FSIZE, (16, 16))\n"
        "from hypokit import cli\n"
        f"sys.exit(cli.main({[*_CK2, '--output', str(out)]!r}))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 1
    assert run.stderr.startswith("hypokit: cannot write output:")
    assert out.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


@pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
@pytest.mark.parametrize("mode", [0o600, 0o640], ids=oct)
def test_replaced_output_keeps_its_mode(tmp_path, mode):
    # two modes: whatever the umask, a new file's default mode differs from one
    out = tmp_path / "out.json"
    out.write_text("old")
    out.chmod(mode)
    assert cli.main([*_CK2, "--output", str(out)]) == 0
    assert core.matrix_from_json(json.loads(out.read_text())).shape == (2, 2)
    assert out.stat().st_mode & 0o7777 == mode


@pytest.mark.parametrize("second", [False, True], ids=["only", "second"])
def test_output_the_user_may_not_write_is_refused(tmp_path, capsys, monkeypatch, second):
    # root may write any file, so the missing write permission is simulated
    locked = (tmp_path / "locked.json").resolve()
    locked.write_text("old")
    access = os.access
    monkeypatch.setattr(
        os, "access", lambda path, mode: Path(path).resolve() != locked and access(path, mode)
    )
    if second:  # the CSV is fine, the final field is locked: neither may land
        argv = ["lorentz", "simulate", "--random", "--N", "1", "--M", "2",
                "--output", str(tmp_path / "out.csv"), "--final-field", str(locked)]
    else:
        argv = [*_CK2, "--output", str(locked)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"hypokit: cannot write output: {locked}:")
    assert locked.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["locked.json"]


def test_constants_decides_the_relations_once(tmp_path, monkeypatch):
    calls = []
    relations_hold = lorentz.AppendixCConstants.relations_hold
    monkeypatch.setattr(
        lorentz.AppendixCConstants, "relations_hold",
        lambda self: calls.append(self) or relations_hold(self),
    )
    out = tmp_path / "constants.json"
    assert cli.main(["lorentz", "constants", "--M", "32", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["relations_hold"] is True
    assert len(calls) == 1


def test_simulate_overflowing_time_is_a_numerical_failure(tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = ["lorentz", "simulate", "--random", "--N", "1", "--M", "2", "--steps", "2",
            "--tmax", "1e100", "--output", str(out)]
    assert cli.main(argv) == 2
    assert "hypokit: numerical failure:" in capsys.readouterr().err
    assert not out.exists()


def test_gallery_rejects_a_parameter_its_example_does_not_take(tmp_path, capsys):
    out = tmp_path / "out.json"
    rc = cli.main(["gallery", "--name", "ek_rescaled", "--k", "4", "--output", str(out)])
    assert rc == 1
    assert "hypokit: invalid input: example 'ek_rescaled' takes only blocks, not k" in (
        capsys.readouterr().err
    )
    assert not out.exists()


#: Public functions that no command calls, each with the reason it stays.
UNREACHED = {
    # perfbench/tracer.py LAYERS installs these by name, and perfbench's
    # tests run that install
    "hc_index.index_via_powers": "benchmark layer",
    "hc_index.kalman_kernel_defect": "benchmark layer",
    "hc_index.eigenvector_obstruction": "benchmark layer",
    "operator_core.psd_sqrt": "benchmark layer",
    "lorentz.cubic_bound_verify": "benchmark layer",
    "lorentz.simulate": "benchmark layer",
    # exact values the tests check the computed ones against
    "gallery.ck_closed_form_norm": "test oracle: exact propagator norm of ck",
    "gallery.ck_short_time_constant_exact": "test oracle: exact rational c of ck",
    "decay.short_time_constant": "test oracle of the fitted short-time constant",
}


def test_every_public_function_is_reached(tmp_path):
    # every command shape at a tiny size, in-process under cProfile; a public
    # function that none of them calls is dead code unless UNREACHED keeps it
    ck2, field = tmp_path / "ck2.json", tmp_path / "field.json"
    ck2.write_text(json.dumps(core.matrix_to_json(gallery.ck_matrix(2))))
    commands = [
        *CLI_COMMANDS,
        ["staircase", "--input", "{ck2}"],
        ["decay", "--input", "{ck2}", "--format", "json", "--steps", "4"],
        *(["gallery", "--name", name, f"--{param}", "2"]
          for name, param in gallery._PARAMETER.items()),
        ["lorentz", "kappa", "--M", "4"],
        ["lorentz", "lyapunov", "--N", "2", "--M", "4"],
        ["lorentz", "simulate", "--random", "--N", "1", "--M", "2", "--final-field", str(field)],
        ["lorentz", "simulate", "--input", str(field), "--steps", "2"],
    ]
    profile = cProfile.Profile()
    for argv in commands:
        argv = [str(ck2) if a == "{ck2}" else a for a in argv]
        rc = profile.runcall(cli.main, [*argv, "--output", str(tmp_path / "out")])
        assert rc == 0, argv
    called = {entry.code for entry in profile.getstats()}

    unreached = []
    for module_name in sorted(m.name for m in pkgutil.iter_modules(hypokit.__path__)):
        module = importlib.import_module(f"hypokit.{module_name}")
        for name in getattr(module, "__all__", ()):  # cli has none
            fn = getattr(module, name)
            if inspect.isfunction(fn) and fn.__code__ not in called:
                unreached.append(f"{module_name}.{name}")
    assert sorted(unreached) == sorted(UNREACHED)
