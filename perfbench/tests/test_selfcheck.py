"""Self-check of the benchmark at tiny sizes.

Run with: python3 -m pytest -q perfbench/tests
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _files(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    workloads.build(workload, 7, tmp_path / "a", "tiny")
    workloads.build(workload, 7, tmp_path / "b", "tiny")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


def test_seed_changes_the_planted_pair(tmp_path):
    workloads.build("index-audit", 1, tmp_path / "a", "tiny")
    workloads.build("index-audit", 2, tmp_path / "b", "tiny")
    a, b = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert a["planted10.json"] != b["planted10.json"]
    assert a["ek4.json"] == b["ek4.json"]


def _kalman_index(C: np.ndarray) -> int:
    """Smallest m with rank [B, J B, ..., J^m B] = n, B spanning the range of R."""
    n = C.shape[0]
    R, J = (C + C.conj().T) / 2, (C.conj().T - C) / 2
    w, V = np.linalg.eigh(R)
    blocks = [V[:, w > 1e-9 * w.max()]]
    for m in range(n):
        K = np.hstack(blocks)
        sv = np.linalg.svd(K, compute_uv=False)
        if np.count_nonzero(sv > 1e-9 * sv[0]) == n:
            return m
        blocks.append(J @ blocks[-1])
    raise AssertionError("pair is not hypocoercive")


@pytest.mark.parametrize("n,block", [(10, 3), (23, 5)])
def test_planted_pair_has_planted_index(n, block):
    C, index = workloads.planted_pair(np.random.default_rng(3), n, block)
    assert index == math.ceil(n / block) - 1
    assert np.linalg.eigvalsh((C + C.conj().T) / 2)[0] >= -1e-12
    assert _kalman_index(C) == index


def test_ek_index_is_k_minus_one():
    for k in (2, 5, 8):
        assert _kalman_index(workloads.ek_matrix(k)) == k - 1


def test_closed_forms_match_expm():
    t = np.linspace(0.0, 3.0, 31)
    want = [np.linalg.norm(scipy.linalg.expm(-workloads.ck_matrix(5) * s), 2) for s in t]
    np.testing.assert_allclose(oracles.ck_norm(5, t), want, rtol=1e-12)
    C = oracles.lorentz_generator(2.0, 3)
    R, J = (C + C.conj().T) / 2, (C.conj().T - C) / 2
    np.testing.assert_array_equal(np.diag(R), [1, 1, 1, 0, 1, 1, 1])
    np.testing.assert_array_equal(J, -J.conj().T)


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _analyze_output(index) -> dict:
    return {"audit": {"index_per_method": {m: index for m in ("a", "b", "c", "d")}},
            "short_time_fit": {"a_rounded": 2 * 3 + 1, "flagged": False}}


def test_oracle_rejects_off_by_one_index(tmp_path):
    expect = {"index": 3}
    right = _write(tmp_path / "right.json", _analyze_output(3))
    wrong = _write(tmp_path / "wrong.json", _analyze_output(2))
    assert oracles.check("analyze", 0, [right], expect).ok
    v = oracles.check("analyze", 0, [wrong], expect)
    assert not v.ok and v.methods_right == 0 and v.methods_total == 4
    assert not oracles.check("analyze", 3, [right], expect).ok
    assert not oracles.check("analyze", 0, [str(tmp_path / "missing.json")], expect).ok


def test_oracle_rejects_wrong_curve(tmp_path):
    C = workloads.ck_matrix(5)
    t = np.linspace(0.0, 3.0, 31)
    expect = {"C": C, "tmax": 3.0, "steps": 30, "ck": 5}
    good = oracles.ck_norm(5, t)
    ok = _write(tmp_path / "ok.json", {"t": list(t), "norm": list(good)})
    assert oracles.check("decay", 0, [ok], expect).ok
    bad = _write(tmp_path / "bad.json", {"t": list(t), "norm": list(good * (1 + 1e-6))})
    assert not oracles.check("decay", 0, [bad], expect).ok


def test_tracer_restores_wrapped_functions():
    import hypokit.operator_core as core

    original = core.matrix_exponential
    t = tracer.Tracer(0)
    saved = tracer.install(t)
    try:
        assert core.matrix_exponential is not original
        core.matrix_exponential(np.eye(2), 1.0)
        core.matrix_exponential(np.eye(2), 1.0)
    finally:
        assert tracer.restore(saved)
    assert core.matrix_exponential is original
    assert [s[0] for s in t.spans] == ["operator_core.matrix_exponential"] * 2
    assert t.counters["operator_core.matrix_exponential.dups"] == 1
    assert t.counters["operator_core.matrix_exponential.n3_sum"] == 16


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(trace):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    summary = run.run("lorentz-verify", 5, 0.0, trace, scale="tiny")
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    got = {name: m["unit"] for name, m in summary["metrics"].items()}
    assert got == wanted
    assert all(isinstance(m["value"], (int, float)) for m in summary["metrics"].values())


def test_benchmark_lists_every_workload_but_the_known_wrong_ones():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = {w["name"] for w in spec["workloads"]}
    assert listed == set(workloads.WORKLOADS) - set(workloads.KNOWN_WRONG)
    assert set(workloads.MODULES) == set(workloads.WORKLOADS)
