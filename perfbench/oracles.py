"""Checks of hypokit's answers that share no code with hypokit.

Each check reads the files a command wrote and compares them with ground
truth that the benchmark knows by construction (a planted index, k - 1 for
E_k, closed forms) or recomputes itself with numpy/scipy.  A command fails
when it exits non-zero or when any check fails, so a wrong answer that exits
0 still counts as a failure.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

#: Certified decay rate of the Lorentz modal norms and the limit of kappa1.
LAMBDA0 = 0.5 - 1.0 / (6.0 * math.sqrt(2.0)) - math.sqrt(7.0 / 16.0 + 1.0 / math.sqrt(8.0)) / 3.0
KAPPA_LIMIT = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass
class Verdict:
    """Outcome of one command's checks plus the counts the trace reports."""

    problems: list[str] = field(default_factory=list)
    max_rel_err: float = 0.0
    methods_right: int = 0
    methods_total: int = 0
    staircase_right: int = 0
    staircase_total: int = 0
    warnings: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems

    def require(self, cond: bool, message: str) -> None:
        if not cond:
            self.problems.append(message)

    def compare(self, what: str, got, want, rtol: float) -> None:
        got, want = np.asarray(got), np.asarray(want)
        if got.shape != want.shape:
            self.problems.append(f"{what}: shape {got.shape} != {want.shape}")
            return
        err = float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))
        self.max_rel_err = max(self.max_rel_err, err)
        self.require(err <= rtol, f"{what}: relative error {err:.3g} > {rtol:g}")


def read_matrix(obj: dict) -> np.ndarray:
    vals = [complex(e, 0.0) if isinstance(e, (int, float)) else complex(e[0], e[1])
            for e in obj["entries"]]
    return np.array(vals, dtype=complex).reshape(int(obj["n_rows"]), int(obj["n_cols"]))


def spectral_norm(A: np.ndarray) -> float:
    return float(np.linalg.norm(A, 2))


def ck_norm(k: int, t: np.ndarray) -> np.ndarray:
    """||exp(-C t)|| for C = [[0, k], [-k, 1]] in closed form.

    With B = I/2 - C one has B^2 = -w^2 I, w = sqrt(k^2 - 1/4), so
    exp(-C t) = e^(-t/2) (cos(w t) I + sin(w t)/w B), a real 2x2 matrix whose
    top singular value follows from its Frobenius norm and determinant.
    """
    w = math.sqrt(k * k - 0.25)
    c, s = np.cos(w * t), np.sin(w * t) / w
    a, b, cc, d = c + 0.5 * s, -k * s, k * s, c - 0.5 * s
    fro = a * a + b * b + cc * cc + d * d
    det = a * d - b * cc
    top = np.sqrt((fro + np.sqrt(np.maximum(fro * fro - 4.0 * det * det, 0.0))) / 2.0)
    return np.exp(-t / 2.0) * top


def lorentz_generator(n_abs: float, M: int) -> np.ndarray:
    """R - n J10 at velocity cutoff M: R = I without the j = 0 entry, J10 = -i/2 off the diagonal."""
    dim = 2 * M + 1
    C = np.eye(dim, dtype=complex)
    C[M, M] = 0.0
    i = np.arange(dim - 1)
    C[i, i + 1] = 0.5j * n_abs
    C[i + 1, i] = 0.5j * n_abs
    return C


def _analyze(v: Verdict, files: list[Path], expect: dict) -> None:
    m = expect["index"]
    out = json.loads(files[0].read_text())
    for method, index in out["audit"]["index_per_method"].items():
        v.methods_total += 1
        v.methods_right += index == m
        v.require(index == m, f"{method} reports index {index}, expected {m}")
    fit = out["short_time_fit"]
    if fit is not None and not fit["flagged"]:
        v.require(fit["a_rounded"] == 2 * m + 1,
                  f"short-time exponent {fit['a_rounded']} != 2m+1 = {2 * m + 1}")


def _staircase(v: Verdict, files: list[Path], expect: dict) -> None:
    m, C = expect["index"], expect["C"]
    out = json.loads(files[0].read_text())
    dims = out["block_dims"]
    index = len(dims) - 2 if dims[-1] == 0 else None
    v.staircase_total += 1
    v.staircase_right += index == m
    v.require(index == m, f"staircase index {index} (blocks {dims}), expected {m}")
    v.warnings += len(out["warnings"])
    Q = read_matrix(out["basis"])
    n = C.shape[0]
    v.compare("staircase basis unitarity", Q.conj().T @ Q, np.eye(n), 1e-10)
    v.compare("staircase J reconstruction", Q @ read_matrix(out["J_hat"]) @ Q.conj().T,
              0.5 * (C.conj().T - C), 1e-10)
    v.compare("staircase R reconstruction", Q @ read_matrix(out["R_hat"]) @ Q.conj().T,
              0.5 * (C + C.conj().T), 1e-10)


def _decay(v: Verdict, files: list[Path], expect: dict) -> None:
    out = json.loads(files[0].read_text())
    t, y = np.array(out["t"], dtype=float), np.array(out["norm"], dtype=float)
    grid = np.linspace(0.0, expect["tmax"], expect["steps"] + 1)
    v.require(t.shape == grid.shape and np.allclose(t, grid, rtol=0.0, atol=1e-12),
              "time grid differs from the requested one")
    v.require(abs(y[0] - 1.0) <= 1e-12, f"norm at t=0 is {y[0]!r}, not 1")
    v.require(bool(np.all(y <= 1.0 + 1e-12)), f"norm exceeds 1: max {y.max()!r}")
    v.require(bool(np.all(np.diff(y) <= 1e-12)), "norm curve increases")
    if "ck" in expect and t.shape == grid.shape:
        v.compare(f"ck_{expect['ck']} closed form", y, ck_norm(expect["ck"], t), 1e-10)
    C = expect["C"]
    for i in (len(t) // 7, len(t) // 2, len(t) - 1):
        v.compare(f"norm at t={t[i]:.4g}", y[i], spectral_norm(scipy.linalg.expm(-C * t[i])), 1e-10)


def _ek_rescaled(v: Verdict, files: list[Path], expect: dict) -> None:
    A = read_matrix(json.loads(files[0].read_text()))
    blocks = expect["blocks"]
    n = blocks * (blocks + 1) // 2
    v.require(A.shape == (n, n), f"shape {A.shape}, expected {(n, n)}")
    if A.shape != (n, n):
        return
    rest = A.copy()
    i = 0
    for k in range(1, blocks + 1):
        blk = A[i : i + k, i : i + k]
        rest[i : i + k, i : i + k] = 0.0
        r = blk[k - 1, k - 1].real
        v.require(r > 0.0, f"block {k}: scale {r!r} is not positive")
        E = np.zeros((k, k), dtype=complex)
        E[np.arange(k - 1), np.arange(1, k)] = 1.0
        E[np.arange(1, k), np.arange(k - 1)] = -1.0
        E[k - 1, k - 1] = 1.0
        v.compare(f"block {k} is r*E_{k}", blk, r * E, 1e-12)
        norm1 = spectral_norm(scipy.linalg.expm(-blk))
        v.require(norm1 <= 1.0 / math.e + 1e-6, f"block {k}: ||exp(-r E_k)|| = {norm1:.6g} > 1/e")
        i += k
    v.require(not np.any(rest), "entries outside the diagonal blocks")


def _lorentz_verify(v: Verdict, files: list[Path], expect: dict) -> None:
    out = json.loads(files[0].read_text())
    k = out["constants"]
    v.compare("kappa1 vs (3-sqrt5)/2", k["kappa1"], KAPPA_LIMIT, 1e-10)
    v.compare("lambda0", k["lambda0"], LAMBDA0, 1e-14)
    delta = min(k["kappa1"] / 5.0, k["kappa3"] / 2.0)
    tau = min(k["tau1"], k["tau2"], k["tau3"], 1.0)
    c1 = delta / 12.0
    v.compare("delta relation", k["delta"], delta, 1e-12)
    v.compare("tau relation", k["tau"], tau, 1e-12)
    v.compare("c1 relation", k["c1"], c1, 1e-12)
    v.compare("c2 relation", k["c2"], c1 / (1.0 + 1.0 / (LAMBDA0 * tau)) ** 3, 1e-12)
    v.compare("c relation", k["c"], min(k["c2"], k["c3"]), 1e-12)
    v.require(out["cubic_bound"]["ok"], "cubic bound reported violated")
    v.require(out["cubic_bound"]["modes"] == [float(n) for n in range(1, expect["N"] + 1)],
              "cubic bound did not cover modes 1..N")
    sw = out["sandwich"]
    v.require(sw["ok"], "sandwich bound reported violated")
    t = np.array(sw["times"], dtype=float)
    sup = np.array(sw["sup_norms"], dtype=float)
    v.compare("sandwich time grid", t, np.linspace(0.0, k["tau"], expect["steps"]), 1e-14)
    if t.shape != sup.shape or t.size != expect["steps"]:
        return
    v.require(bool(np.all(sup <= 1.0 - k["c"] * t**3 + 1e-9)), "sup norm above 1 - c t^3")
    gens = [lorentz_generator(float(n), expect["M"]) for n in range(1, expect["N"] + 1)]
    for i in (t.size // 3, t.size - 1):
        want = max(spectral_norm(scipy.linalg.expm(-C * t[i])) for C in gens)
        v.compare(f"sup norm at t={t[i]:.4g}", sup[i], want, 1e-10)


def _distance(coeffs: np.ndarray) -> float:
    N, M = (coeffs.shape[0] - 1) // 2, (coeffs.shape[2] - 1) // 2
    total = float(np.sum(np.abs(coeffs) ** 2))
    return math.sqrt(max(total - abs(coeffs[N, N, M]) ** 2, 0.0))


def _lorentz_simulate(v: Verdict, files: list[Path], expect: dict) -> None:
    c0 = expect["coeffs"]
    N, M = (c0.shape[0] - 1) // 2, (c0.shape[2] - 1) // 2
    with files[0].open(newline="") as fh:
        rows = list(csv.reader(fh))
    v.require(rows[0] == ["t", "distance", "bound"], f"unexpected CSV header {rows[0]}")
    body = np.array([[float(x) for x in r] for r in rows[1:]])
    grid = np.linspace(0.0, expect["tmax"], expect["steps"] + 1)
    v.compare("CSV time grid", body[:, 0], grid, 1e-14)
    v.require(bool(np.all(body[:, 1] <= body[:, 2] + 1e-8)), "distance above the decay bound")
    v.compare("initial distance", body[0, 1], _distance(c0), 1e-12)

    fin = json.loads(files[1].read_text())
    v.require((fin["N"], fin["M"]) == (N, M), f"final field cutoffs {(fin['N'], fin['M'])}")
    c1 = np.zeros_like(c0)
    for item in fin["coeffs"]:
        c1[item["n"][0] + N, item["n"][1] + N, item["j"] + M] = complex(item["re"], item["im"])
    v.require(abs(c1[N, N, M] - c0[N, N, M]) <= 1e-14 * max(1.0, abs(c0[N, N, M])),
              "mass not conserved")
    v.compare("last CSV row vs final field distance", body[-1, 1], _distance(c1), 1e-9)
    decay = np.full(2 * M + 1, math.exp(-expect["tmax"]))
    decay[M] = 1.0
    v.compare("zero mode", c1[N, N], c0[N, N] * decay, 1e-12)
    for n1, n2 in expect["modes"]:
        P = scipy.linalg.expm(-lorentz_generator(math.hypot(n1, n2), M) * expect["tmax"])
        v.compare(f"mode ({n1},{n2})", c1[n1 + N, n2 + N], P @ c0[n1 + N, n2 + N], 1e-9)


CHECKS = {
    "analyze": _analyze,
    "staircase": _staircase,
    "decay": _decay,
    "ek_rescaled": _ek_rescaled,
    "lorentz_verify": _lorentz_verify,
    "lorentz_simulate": _lorentz_simulate,
}


def check(oracle: str, returncode: int, outputs: list[str], expect: dict) -> Verdict:
    """Verdict on one command: its exit code and every check of its output files."""
    v = Verdict()
    v.require(returncode == 0, f"exit code {returncode}")
    files = [Path(p) for p in outputs]
    missing = [str(p) for p in files if not p.is_file()]
    if missing:
        v.problems.append(f"missing output {missing}")
        return v
    try:
        CHECKS[oracle](v, files, expect)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        v.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return v
