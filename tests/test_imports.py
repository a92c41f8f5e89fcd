"""What a fresh process loads, and the CLI's one-thread BLAS default.

Each layering check runs in a new interpreter, because ``sys.modules`` of
the test process already holds numpy and scipy.
"""

import importlib.util
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hypokit
from hypokit import gallery
from hypokit import operator_core as core

from helpers import CLI_COMMANDS

SRC = str(Path(__file__).resolve().parents[1] / "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

THREAD_PROBE = """
import ctypes, glob, json, os, sys
import hypokit.cli as cli
rc = cli.main(["gallery", "--name", "ck", "--k", "2", "--output", os.devnull])
import numpy
threads = None
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
for lib in glob.glob(libs):
    get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
    if get is not None:
        get.restype = ctypes.c_int
        threads = get()
print(json.dumps([rc, threads]))
"""


def _child(code: str, **env_vars):
    """Run ``code`` in a fresh interpreter with the BLAS thread variables
    cleared (then ``env_vars`` set); return the JSON of its last line."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(env_vars)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _loaded_after(statements: str) -> set[str]:
    return set(_child(f"import json, sys\n{statements}\nprint(json.dumps(sorted(sys.modules)))"))


def _is_scipy(name: str) -> bool:
    return name == "scipy" or name.startswith("scipy.")


def _run_command(tmp_path, argv, block=""):
    """Run ``cli.main(argv)`` in a fresh interpreter after ``block``; return its
    exit code and the modules it loaded."""
    path = tmp_path / "ck2.json"
    path.write_text(json.dumps(core.matrix_to_json(gallery.ck_matrix(2))))
    argv = [str(path) if a == "{ck2}" else a for a in argv] + ["--output", os.devnull]
    return _child(
        f"import json, os, sys\n{block}\n"
        "from hypokit import cli\n"
        f"rc = cli.main({argv!r})\n"
        "print(json.dumps([rc, sorted(sys.modules)]))"
    )


#: The commands of ``CLI_COMMANDS`` that compute no index and need no staircase.
_NO_INDEX = [argv for argv in CLI_COMMANDS if argv[0] != "analyze"]


class TestLayering:
    def test_package_loads_no_numpy_or_scipy(self):
        loaded = _loaded_after("import hypokit")
        assert "numpy" not in loaded
        assert not any(_is_scipy(m) for m in loaded)

    def test_index_modules_load_no_scipy(self):
        loaded = _loaded_after(
            "import hypokit.staircase, hypokit.hc_index, hypokit.decay, hypokit.gallery"
        )
        assert "numpy" in loaded
        assert not any(_is_scipy(m) for m in loaded)

    def test_no_module_loads_fractions(self):
        # exact rational arithmetic is an oracle of the tests, not of hypokit
        modules = sorted(m.name for m in pkgutil.iter_modules(hypokit.__path__))
        loaded = _loaded_after("\n".join(f"import hypokit.{m}" for m in modules))
        assert {f"hypokit.{m}" for m in modules} <= loaded
        assert "fractions" not in loaded

    def test_lorentz_loads_no_optimizer(self):
        assert "scipy.optimize" not in _loaded_after("import hypokit.lorentz")

    @pytest.mark.parametrize(
        "argv", CLI_COMMANDS, ids=[" ".join(w for w in a[:2] if w[0] != "-") for a in CLI_COMMANDS]
    )
    def test_command_needs_no_scipy(self, tmp_path, argv):
        rc, _ = _run_command(tmp_path, argv, block='sys.modules["scipy"] = None')
        assert rc == 0
        rc, loaded = _run_command(tmp_path, argv)
        assert rc == 0
        assert not any(_is_scipy(m) for m in loaded)

    @pytest.mark.parametrize(
        "argv", _NO_INDEX, ids=[" ".join(w for w in a[:2] if w[0] != "-") for a in _NO_INDEX]
    )
    def test_command_loads_no_staircase(self, tmp_path, argv):
        rc, loaded = _run_command(tmp_path, argv)
        assert rc == 0
        assert "hypokit.decay" in loaded
        assert "hypokit.staircase" not in loaded

    def test_staircase_command_loads_no_scipy(self, tmp_path):
        path = tmp_path / "ek4.json"
        path.write_text(json.dumps(core.matrix_to_json(gallery.ek_matrix(4))))
        rc, loaded = _child(
            "import json, os, sys\n"
            "from hypokit import cli\n"
            f"rc = cli.main(['staircase', '--input', {str(path)!r}, '--output', os.devnull])\n"
            "print(json.dumps([rc, sorted(sys.modules)]))"
        )
        assert rc == 0
        assert not any(_is_scipy(m) for m in loaded)

    def test_every_public_name_resolves_to_its_module(self):
        from hypokit import cli, decay, errors, gallery, hc_index, lorentz, operator_core, staircase

        assert cli is sys.modules["hypokit.cli"]
        for module in (decay, errors, gallery, hc_index, lorentz, operator_core, staircase):
            assert module is sys.modules[module.__name__]
            assert len(set(module.__all__)) == len(module.__all__)
            for name in module.__all__:
                obj = getattr(module, name)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    assert obj.__module__ == module.__name__, name
        assert hypokit.__version__ == "0.1.0"

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError):
            hypokit.no_such_name


class TestThreadDefault:
    @pytest.mark.parametrize(
        "env_vars, expected",
        [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2), ({"OMP_NUM_THREADS": "2"}, 2)],
        ids=["unset", "openblas-2", "omp-2"],
    )
    def test_reaches_blas(self, env_vars, expected):
        if (os.cpu_count() or 1) < 2:
            pytest.skip("needs at least two cores to tell one thread from two")
        rc, threads = _child(THREAD_PROBE, **env_vars)
        if threads is None:
            pytest.skip("no OpenBLAS thread-count probe in this numpy build")
        assert rc == 0
        assert threads == expected

    def test_import_after_numpy_leaves_environment(self, monkeypatch):
        import numpy  # noqa: F401  (the in-process case: numpy is already loaded)

        for var in THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        before = dict(os.environ)
        spec = importlib.util.find_spec("hypokit.cli")
        spec.loader.exec_module(importlib.util.module_from_spec(spec))  # a fresh import
        assert dict(os.environ) == before
