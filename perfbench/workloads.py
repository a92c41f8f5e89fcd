"""Seeded inputs and command lists of the benchmark workloads.

Every input is generated here with numpy alone, never with hypokit, so the
ground truth attached to each command (a planted index, the matrix itself,
the initial field) is known independently of the code under test.  The same
seed writes byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("lorentz-verify", "lorentz-simulate", "index-audit", "norm-curves",
             "index-audit-known-wrong")
#: Workloads on which hypokit currently gives wrong answers.  They are not in
#: BENCHMARK.json, whose workloads must all be answered correctly; running
#: one by hand keeps those answers visible as failures.
KNOWN_WRONG = ("index-audit-known-wrong",)

#: hypokit modules each workload's commands load; setup_s imports exactly
#: these, so making an import lazy cannot hide its cost.
MODULES = {
    "lorentz-verify": ("hypokit.cli", "hypokit.operator_core", "hypokit.decay", "hypokit.lorentz"),
    "lorentz-simulate": ("hypokit.cli", "hypokit.operator_core", "hypokit.decay", "hypokit.lorentz"),
    "index-audit": (
        "hypokit.cli", "hypokit.operator_core", "hypokit.hc_index",
        "hypokit.decay", "hypokit.staircase",
    ),
    "index-audit-known-wrong": (
        "hypokit.cli", "hypokit.operator_core", "hypokit.hc_index",
        "hypokit.decay", "hypokit.staircase",
    ),
    "norm-curves": ("hypokit.cli", "hypokit.operator_core", "hypokit.decay", "hypokit.gallery"),
}

#: Problem sizes.  "full" is the benchmark: each pass takes 3-5 s on a
#: 2-core box, so a run repeats it and reports medians.  "tiny" keeps the
#: self-check fast.
SIZES = {
    "full": {
        # (n, block) of the planted pairs and the k of the ek_k ladder.
        "planted": ((60, 12),),
        "ek": (16,),
        # Index audits at n = 50..100 and k up to 40, which hypokit 0.1.0 gets wrong.
        "known_wrong_planted": ((50, 7), (100, 11)),
        "known_wrong_ek": (8, 16, 25, 40),
        "accretive_n": 40,
        "ck": 5,
        "rescaled_blocks": 5,
        "decay_steps": 150,
        "verify": {"N": 10, "M": 40, "M_constants": 96, "steps": 25},
        "fields": 2,
        "field_NM": (6, 32),
    },
    "tiny": {
        "planted": ((10, 3),),
        "ek": (4,),
        "known_wrong_planted": ((10, 3),),
        "known_wrong_ek": (4,),
        "accretive_n": 6,
        "ck": 5,
        "rescaled_blocks": 2,
        "decay_steps": 30,
        "verify": {"N": 2, "M": 8, "M_constants": 32, "steps": 6},
        "fields": 1,
        "field_NM": (2, 4),
    },
}

#: CLI defaults of `lorentz simulate` that the simulate oracle relies on.
SIMULATE_TMAX = 30.0
SIMULATE_STEPS = 20
#: CLI default of `decay --tmax`.
DECAY_TMAX = 3.0


@dataclass
class Command:
    """One hypokit invocation and what its answer must satisfy."""

    argv: list[str]
    oracle: str
    expect: dict = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)


def matrix_json(A: np.ndarray) -> dict:
    return {
        "n_rows": int(A.shape[0]),
        "n_cols": int(A.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in np.asarray(A, dtype=complex).ravel()],
    }


def field_json(coeffs: np.ndarray) -> dict:
    """Field file format of `lorentz simulate --input`, coefficients ordered by (n1, n2, j)."""
    s1, _, s3 = coeffs.shape
    N, M = (s1 - 1) // 2, (s3 - 1) // 2
    items = []
    for (a, b, c), z in np.ndenumerate(coeffs):
        items.append({"n": [a - N, b - N], "j": c - M, "re": float(z.real), "im": float(z.imag)})
    return {"N": N, "M": M, "coeffs": items}


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, separators=(",", ":")), encoding="utf-8")


def ek_matrix(k: int) -> np.ndarray:
    """Skew shift with +-1 off the diagonal and one dissipative corner; index k-1."""
    C = np.zeros((k, k), dtype=complex)
    i = np.arange(k - 1)
    C[i, i + 1] = 1.0
    C[i + 1, i] = -1.0
    C[k - 1, k - 1] = 1.0
    return C


def ck_matrix(k: int) -> np.ndarray:
    return np.array([[0.0, k], [-k, 1.0]], dtype=complex)


def _gaussian(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(_gaussian(rng, n, n))
    d = np.diag(R)
    return Q * (d / np.abs(d))


def _with_singular_values(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """rows x cols matrix (rows <= cols) with singular values drawn from [0.5, 1.5]."""
    U = random_unitary(rng, rows)
    V = random_unitary(rng, cols)[:rows]
    return (U * rng.uniform(0.5, 1.5, rows)) @ V


def planted_pair(rng: np.random.Generator, n: int, block: int) -> tuple[np.ndarray, int]:
    """Accretive C = R - J of planted index, and that index.

    The pair is built in staircase form -- R supported and definite on the
    first block, J block tridiagonal with surjective subdiagonal blocks of
    sizes ``block, ..., block, n mod block`` -- and conjugated by a unitary
    drawn from ``rng``.  With s nonzero blocks the hypocoercivity index is
    s - 1.  The staircase itself is fixed by (n, block), so every seed poses
    the same problem in a different basis.
    """
    fixed = np.random.default_rng([n, block])
    dims = [block] * (n // block) + ([n % block] if n % block else [])
    edges = np.concatenate([[0], np.cumsum(dims)])
    sl = [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]
    R = np.zeros((n, n), dtype=complex)
    W = random_unitary(fixed, block)
    R[sl[0], sl[0]] = (W * fixed.uniform(0.5, 1.5, block)) @ W.conj().T
    J = np.zeros((n, n), dtype=complex)
    for i, d in enumerate(dims):
        S = _gaussian(fixed, d, d)
        J[sl[i], sl[i]] = 0.5 * (S - S.conj().T)
        if i + 1 < len(dims):
            B = _with_singular_values(fixed, dims[i + 1], d)
            J[sl[i + 1], sl[i]] = B
            J[sl[i], sl[i + 1]] = -B.conj().T
    U = random_unitary(rng, n)
    C = U @ (R - J) @ U.conj().T
    return C, len(dims) - 1


def random_accretive(rng: np.random.Generator, n: int) -> np.ndarray:
    """C = G G*/n - J with J a random skew matrix."""
    G = _gaussian(rng, n, n)
    S = _gaussian(rng, n, n)
    return G @ G.conj().T / n - 0.5 * (S - S.conj().T)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def build(workload: str, seed: int, workdir: Path, scale: str = "full") -> list[Command]:
    """Write the workload's inputs into ``workdir`` and return its commands."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    size = SIZES[scale]
    workdir.mkdir(parents=True, exist_ok=True)
    cmds: list[Command] = []

    def out(name: str) -> str:
        return str(workdir / name)

    if workload.startswith("index-audit"):
        prefix = "known_wrong_" if workload in KNOWN_WRONG else ""
        cases = []
        for stream, (n, block) in enumerate(size[prefix + "planted"]):
            C, index = planted_pair(_rng(seed, stream), n, block)
            cases.append((f"planted{n}", C, index))
        cases += [(f"ek{k}", ek_matrix(k), k - 1) for k in size[prefix + "ek"]]
        for name, C, index in cases:
            src = out(f"{name}.json")
            write_json(Path(src), matrix_json(C))
            expect = {"index": index, "C": C}
            cmds.append(Command(["analyze", "--input", src, "--output", out(f"{name}.analyze.json")],
                                "analyze", expect, [out(f"{name}.analyze.json")]))
            cmds.append(Command(["staircase", "--input", src, "--output", out(f"{name}.staircase.json")],
                                "staircase", expect, [out(f"{name}.staircase.json")]))

    elif workload == "norm-curves":
        steps = size["decay_steps"]
        cases = [
            (f"accretive{size['accretive_n']}", random_accretive(_rng(seed, 0), size["accretive_n"]), {}),
            (f"ck{size['ck']}", ck_matrix(size["ck"]), {"ck": size["ck"]}),
        ]
        for name, C, extra in cases:
            src = out(f"{name}.json")
            write_json(Path(src), matrix_json(C))
            res = out(f"{name}.decay.json")
            cmds.append(Command(
                ["decay", "--input", src, "--format", "json", "--steps", str(steps), "--output", res],
                "decay", {"C": C, "tmax": DECAY_TMAX, "steps": steps, **extra}, [res]))
        blocks = size["rescaled_blocks"]
        res = out("ek_rescaled.json")
        cmds.append(Command(["gallery", "--name", "ek_rescaled", "--blocks", str(blocks), "--output", res],
                            "ek_rescaled", {"blocks": blocks}, [res]))

    elif workload == "lorentz-verify":
        v = size["verify"]
        res = out("verify.json")
        argv = ["lorentz", "verify", "--output", res, "--N", str(v["N"]), "--M", str(v["M"]),
                "--M-constants", str(v["M_constants"]), "--steps", str(v["steps"])]
        cmds.append(Command(argv, "lorentz_verify", dict(v), [res]))

    else:  # lorentz-simulate
        N, M = size["field_NM"]
        for i in range(size["fields"]):
            rng = _rng(seed, i)
            coeffs = _gaussian(rng, 2 * N + 1, 2 * N + 1, 2 * M + 1)
            src = out(f"field{i}.json")
            write_json(Path(src), field_json(coeffs))
            modes = [(int(a), int(b)) for a, b in rng.integers(-N, N + 1, size=(3, 2)) if (a, b) != (0, 0)]
            csv, final = out(f"field{i}.csv"), out(f"field{i}.final.json")
            cmds.append(Command(
                ["lorentz", "simulate", "--input", src, "--final-field", final, "--output", csv],
                "lorentz_simulate",
                {"coeffs": coeffs, "modes": modes, "tmax": SIMULATE_TMAX, "steps": SIMULATE_STEPS},
                [csv, final]))
    return cmds
