"""Staircase form of a pair (J, R): a unitary basis change exposing a block
tridiagonal skew part with surjective subdiagonal blocks and a Hermitian part
supported in the leading corner.

The construction mirrors the inductive proof: split off the orthogonal
complement of ker R first, then repeatedly split the trailing space into the
image of the current connecting block and its complement, until that block
vanishes.  A nontrivial final block means the pair cannot be hypocoercive
(the skew restriction to it has purely imaginary spectrum and its space is
invariant).

One rank rule (``core._rank_cut``) decides every rank, against the norm of
the operator in question, so the form does not change when (R, J) is scaled
by s > 0:

- R keeps the eigenvalues at or above rank_tol * max|eigenvalue of R|;
- a subdiagonal block keeps the singular values at or above
  rank_tol * ||J||, and a block of rank 0 ends the chain;
- a value within a factor 10 of its cut (in [cut / 10, 10 cut]) is reported
  in ``warnings`` as ambiguous.

``verify_staircase`` checks the subdiagonal blocks with the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import operator_core as core
from .errors import ContractViolationError, DimensionError

__all__ = ["StaircaseForm", "StaircaseReport", "build_staircase", "verify_staircase"]


@dataclass
class StaircaseForm:
    """Unitary Q with Q*JQ block tridiagonal and Q*RQ corner-supported.

    ``block_dims`` sums to the dimension; the final entry may be 0 so that the
    block count always includes the (possibly trivial) terminal invariant
    space.
    """

    basis: np.ndarray
    block_dims: list[int]
    J_hat: np.ndarray
    R_hat: np.ndarray
    rank_tol: float
    warnings: list[str] = field(default_factory=list)
    #: The cut of R that made block 0, kept for the power families' sqrt(R).
    r_cut: core._PsdCut | None = field(default=None, repr=False)

    @property
    def n_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def terminal_dim(self) -> int:
        return self.block_dims[-1]

    @property
    def index(self) -> int | None:
        """Hypocoercivity index n_blocks - 2, or None if the terminal block is nonzero."""
        return self.n_blocks - 2 if self.terminal_dim == 0 else None

    def block_slices(self) -> list[slice]:
        edges = np.concatenate([[0], np.cumsum(self.block_dims)])
        return [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]

    def to_json_dict(self) -> dict:
        return {
            "block_dims": [int(d) for d in self.block_dims],
            "basis": core.matrix_to_json(self.basis),
            "J_hat": core.matrix_to_json(self.J_hat),
            "R_hat": core.matrix_to_json(self.R_hat),
            "warnings": list(self.warnings),
        }


def _check_pair(R, J):
    R = core.as_matrix(R, square=True)
    J = core.as_matrix(J, square=True)
    if R.shape != J.shape:
        raise DimensionError(f"shape mismatch: R is {R.shape}, J is {J.shape}")
    asym, scale = core._asymmetry(R)
    if asym > 1e-8 * max(scale, 1e-300):
        raise ContractViolationError("R is not Hermitian")
    asym, scale = core._asymmetry(1j * J)
    if asym > 1e-8 * max(scale, 1e-300):
        raise ContractViolationError("J is not skew-Hermitian")
    return R, J


def build_staircase(R, J, rank_tol: float = 1e-10) -> StaircaseForm:
    """Construct the staircase form of (J, R) by the rank rule of the module
    docstring.

    Block 0 is the kept range of R from ``core._psd_cut``, which rejects an R
    that is not PSD at the same tolerance.  Each later block is the range of
    the connecting block, cut at rank_tol * ||J||.
    """
    R, J = _check_pair(R, J)
    n = R.shape[0]
    cut_J = rank_tol * max(core.spectral_norm(J), 1e-300)
    warnings: list[str] = []

    r_cut = core._psd_cut(R, rank_tol)
    if r_cut.ambiguous:
        warnings.append("rank decision for the Hermitian part is within 10x of rank_tol")
    k = n - r_cut.rank
    blocks = [r_cut.V[:, k:][:, ::-1]]  # kept eigenvectors, largest eigenvalue first
    trailing = r_cut.V[:, :k]

    while True:
        prev = blocks[-1]
        if trailing.shape[1] == 0 or prev.shape[1] == 0:
            blocks.append(trailing)
            break
        U, s, _ = np.linalg.svd(trailing.conj().T @ J @ prev)
        rank, ambiguous = core._rank_cut(s, cut_J)
        if ambiguous:
            warnings.append(
                f"rank decision at block {len(blocks) + 1} is within 10x of rank_tol"
            )
        if rank == 0:
            blocks.append(trailing)
            break
        blocks.append(trailing @ U[:, :rank])
        trailing = trailing @ U[:, rank:]

    Q = np.hstack(blocks)
    J_hat = Q.conj().T @ J @ Q
    R_hat = Q.conj().T @ R @ Q
    return StaircaseForm(
        basis=Q,
        block_dims=[b.shape[1] for b in blocks],
        J_hat=J_hat,
        R_hat=R_hat,
        rank_tol=rank_tol,
        warnings=warnings,
        r_cut=r_cut,
    )


@dataclass
class StaircaseReport:
    """Residuals of every structural invariant plus the hypocoercivity hint."""

    ok: bool
    checks: dict[str, tuple[bool, float]]
    hypocoercive_possible: bool
    failures: list[str]

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": {k: {"ok": v[0], "residual": v[1]} for k, v in self.checks.items()},
            "hypocoercive_possible": self.hypocoercive_possible,
            "failures": list(self.failures),
        }


#: Scale-relative bound on the residuals that ``verify_staircase`` checks.
VERIFY_RTOL = 1e-10


def verify_staircase(form: StaircaseForm, R, J) -> StaircaseReport:
    """Check all staircase invariants and the reconstruction of (R, J).

    The J pattern, the R corner and both reconstructions must hold to
    ``VERIFY_RTOL`` = 1e-10 times ||J|| resp. max|eigenvalue of R|, the basis
    must be unitary to 1e-12, and each subdiagonal block must keep full row
    rank under the builder's rank rule (module docstring).  A nonzero
    terminal block implies the pair is not hypocoercive; the converse
    direction is not decided by the staircase structure alone.
    """
    R, J = _check_pair(R, J)
    n = R.shape[0]
    Q = form.basis
    scale_J = max(core.spectral_norm(J), 1e-300)
    r_cut = core._psd_cut(R, form.rank_tol)
    scale_R = max(float(np.abs(r_cut.w).max()), 1e-300)
    checks: dict[str, tuple[bool, float]] = {}

    res = core.spectral_norm(Q.conj().T @ Q - np.eye(n))
    checks["basis_unitary"] = (res <= 1e-12, res)

    dims_ok = sum(form.block_dims) == n and len(form.block_dims) >= 2
    checks["block_dims"] = (dims_ok, 0.0 if dims_ok else 1.0)

    slices = form.block_slices()
    s = form.n_blocks
    off = 0.0
    for i in range(s):
        for j in range(s):
            outside = abs(i - j) >= 2 or {i, j} == {s - 2, s - 1}
            if outside:
                blk = form.J_hat[slices[i], slices[j]]
                if blk.size:
                    off = max(off, float(np.abs(blk).max()))
    checks["J_pattern"] = (off <= VERIFY_RTOL * scale_J, off)

    corner = form.R_hat.copy()
    corner[slices[0], slices[0]] = 0.0
    res = float(np.abs(corner).max()) if corner.size else 0.0
    checks["R_corner"] = (res <= VERIFY_RTOL * scale_R, res)

    surj_ok, worst = True, np.inf
    for i in range(1, s - 1):
        blk = form.J_hat[slices[i], slices[i - 1]]
        if blk.shape[0] == 0:
            continue
        sv = np.linalg.svd(blk, compute_uv=False)
        smin = float(sv[min(blk.shape) - 1]) if min(blk.shape) > 0 else 0.0
        surj_ok &= core._rank_cut(sv, form.rank_tol * scale_J)[0] == blk.shape[0]
        worst = min(worst, smin)
    checks["subdiagonal_surjective"] = (surj_ok, 0.0 if np.isinf(worst) else worst)

    rec_J = core.spectral_norm(Q @ form.J_hat @ Q.conj().T - J)
    rec_R = core.spectral_norm(Q @ form.R_hat @ Q.conj().T - R)
    checks["reconstruct_J"] = (rec_J <= VERIFY_RTOL * scale_J, rec_J)
    checks["reconstruct_R"] = (rec_R <= VERIFY_RTOL * scale_R, rec_R)

    kernel_dim = n - r_cut.rank
    count_ok = s <= kernel_dim + 2
    checks["block_count_bound"] = (count_ok, float(s - kernel_dim - 2))

    failures = [name for name, (good, _) in checks.items() if not good]
    return StaircaseReport(
        ok=not failures,
        checks=checks,
        hypocoercive_possible=form.terminal_dim == 0,
        failures=failures,
    )
