"""Every command of the benchmark workloads, at full size and seed 1, passes
the benchmark's own oracle (perfbench/oracles.py, which shares no code with
hypokit).  The commands run in process through ``hypokit.cli.main``; the
oracles recompute answers with scipy, so without it these tests skip."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from hypokit import cli

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

#: The answers of ``index-audit-known-wrong`` that the oracle still refuses:
#: the index audit of ek40, whose families read "unresolved", a label the
#: oracle does not know.
KNOWN_WRONG = {"ek40.analyze.json"}


def perfbench(name: str):
    """perfbench/<name>.py, loaded by path (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


def failing_outputs(workload: str, workdir: Path) -> set[str]:
    """The first output file name of each command whose answer the oracle refuses."""
    pytest.importorskip("scipy")
    oracles, workloads = perfbench("oracles"), perfbench("workloads")
    failed = set()
    for cmd in workloads.build(workload, 1, workdir):
        rc = cli.main(cmd.argv)
        if not oracles.check(cmd.oracle, rc, cmd.outputs, cmd.expect).ok:
            failed.add(Path(cmd.outputs[0]).name)
    return failed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_benchmark_command_passes_its_oracle(tmp_path, workload):
    assert failing_outputs(workload, tmp_path) == set()


def test_known_wrong_fails_only_the_known_index_audits(tmp_path):
    assert failing_outputs("index-audit-known-wrong", tmp_path) <= KNOWN_WRONG
