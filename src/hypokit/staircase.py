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

- R keeps the eigenvalues at or above RANK_RTOL * max|eigenvalue of R|;
- a subdiagonal block keeps the singular values at or above
  RANK_RTOL * ||J||, and a block of rank 0 (an empty one too) ends the chain;
- a value within a factor 10 of its cut (in [cut / 10, 10 cut]) is reported
  in ``warnings`` as ambiguous, naming the cut.

RANK_RTOL = 1e-10 is the fixed cut of ``core``.  ``verify_staircase``
checks the subdiagonal blocks with the same rule.

Both functions take R and J only if R and the Hermitian 1j*J pass the one
Hermitian test of ``operator_core`` (its module docstring), and raise
``ContractViolationError`` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import operator_core as core
from .errors import DimensionError

__all__ = ["StaircaseForm", "StaircaseReport", "build_staircase", "verify_staircase"]


@dataclass
class StaircaseForm:
    """Unitary Q with Q*JQ block tridiagonal and Q*RQ corner-supported.

    ``block_dims`` sums to the dimension; the final entry may be 0 so that the
    block count always includes the (possibly trivial) terminal invariant
    space.  ``r_cut`` (the cut of R that made block 0, ||R|| its ``norm``) and
    ``norm_J`` = ||J|| (1e-300 for J = 0) are the scales every check reads.
    """

    basis: np.ndarray
    block_dims: list[int]
    J_hat: np.ndarray
    R_hat: np.ndarray
    r_cut: core._PsdCut = field(repr=False)
    norm_J: float
    warnings: list[str] = field(default_factory=list)

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
    """(R, J) as matrices of one shape, R and the Hermitian 1j*J checked by the
    one Hermitian test of ``operator_core``; a real J stays real."""
    R = core.as_matrix(R, square=True)
    J = core.as_matrix(J, square=True)
    if R.shape != J.shape:
        raise DimensionError(f"shape mismatch: R is {R.shape}, J is {J.shape}")
    core._hermitian(R, "R is not Hermitian")
    core._hermitian(1j * J, "J is not skew-Hermitian")
    return R, J


def build_staircase(R, J) -> StaircaseForm:
    """Construct the staircase form of (J, R) by the rank rule of the module
    docstring.

    Block 0 is the kept range of R from ``core._psd_cut``, which rejects an R
    that is not PSD at the same cut.  Each later block is the range of the
    connecting block, cut at RANK_RTOL * ||J||.  The pair must pass the one
    Hermitian test (module docstring); real R and J give a real form.
    """
    R, J = _check_pair(R, J)
    n = R.shape[0]
    norm_J = max(core.spectral_norm(J), 1e-300)
    cut_J = core.RANK_RTOL * norm_J
    warnings: list[str] = []

    r_cut = core._psd_cut(R)
    if r_cut.ambiguous:
        warnings.append(
            "rank decision for the Hermitian part is within 10x of its cut "
            f"{core.RANK_RTOL:g} * max|eigenvalue of R| = {core.RANK_RTOL * r_cut.norm:.3g}"
        )
    k = n - r_cut.rank
    blocks = [r_cut.V[:, k:][:, ::-1]]  # kept eigenvectors, largest eigenvalue first
    trailing = r_cut.V[:, :k]

    while True:
        U, s, _ = np.linalg.svd(trailing.conj().T @ J @ blocks[-1])
        rank, ambiguous = core._rank_cut(s, cut_J)
        if ambiguous:
            warnings.append(
                f"rank decision at block {len(blocks) + 1} is within 10x of its cut "
                f"{core.RANK_RTOL:g} * ||J|| = {cut_J:.3g}"
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
        r_cut=r_cut,
        norm_J=norm_J,
        warnings=warnings,
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


#: Scale-relative bound on the reconstruction residuals of ``verify_staircase``.
VERIFY_RTOL = 1e-10


def verify_staircase(form: StaircaseForm, R, J) -> StaircaseReport:
    """Check all staircase invariants and the reconstruction of (R, J).

    The J pattern and the R corner, where the builder leaves what it cut,
    must hold to its cut, ``core.RANK_RTOL`` times ||J|| resp. max|eigenvalue
    of R|, and both reconstructions to ``VERIFY_RTOL`` = 1e-10 times those.
    Both scales and the rank of R come from the form, not from a second cut
    of R; a form of another pair fails a reconstruction whatever it carries.
    The basis must be unitary to 1e-12, and each subdiagonal block must keep
    full row rank under the builder's rank rule (module docstring).  A nonzero
    terminal block implies the pair is not hypocoercive; the converse
    direction is not decided by the staircase structure alone.  The pair
    must pass the one Hermitian test (module docstring).
    """
    R, J = _check_pair(R, J)
    n = R.shape[0]
    Q = form.basis
    scale_J, scale_R = form.norm_J, form.r_cut.norm
    checks: dict[str, tuple[bool, float]] = {}

    res = core.spectral_norm(Q.conj().T @ Q - np.eye(n))
    checks["basis_unitary"] = (res <= 1e-12, res)

    dims_ok = sum(form.block_dims) == n and len(form.block_dims) >= 2
    checks["block_dims"] = (dims_ok, 0.0 if dims_ok else 1.0)

    slices = form.block_slices()
    s = form.n_blocks
    # J_hat vanishes between blocks two or more apart and between the last
    # two, the only pair of blocks whose labels (b below) sum to 2s - 3
    b = np.repeat(np.arange(s), form.block_dims)[:n]
    bi, bj = b[:, None], b[None, :]
    outside = (np.abs(bi - bj) >= 2) | (bi + bj == 2 * s - 3)
    off = float(np.abs(form.J_hat[: b.size, : b.size][outside]).max(initial=0.0))
    checks["J_pattern"] = (off <= core.RANK_RTOL * scale_J, off)

    corner = form.R_hat.copy()
    corner[slices[0], slices[0]] = 0.0
    res = float(np.abs(corner).max()) if corner.size else 0.0
    checks["R_corner"] = (res <= core.RANK_RTOL * scale_R, res)

    surj_ok, worst = True, np.inf
    for i in range(1, s - 1):
        blk = form.J_hat[slices[i], slices[i - 1]]
        if blk.shape[0] == 0:
            continue
        sv = np.linalg.svd(blk, compute_uv=False)
        smin = float(sv[min(blk.shape) - 1]) if min(blk.shape) > 0 else 0.0
        surj_ok &= core._rank_cut(sv, core.RANK_RTOL * scale_J)[0] == blk.shape[0]
        worst = min(worst, smin)
    checks["subdiagonal_surjective"] = (surj_ok, 0.0 if np.isinf(worst) else worst)

    rec_J = core.spectral_norm(Q @ form.J_hat @ Q.conj().T - J)
    rec_R = core.spectral_norm(Q @ form.R_hat @ Q.conj().T - R)
    checks["reconstruct_J"] = (rec_J <= VERIFY_RTOL * scale_J, rec_J)
    checks["reconstruct_R"] = (rec_R <= VERIFY_RTOL * scale_R, rec_R)

    kernel_dim = n - form.r_cut.rank
    count_ok = s <= kernel_dim + 2
    checks["block_count_bound"] = (count_ok, float(s - kernel_dim - 2))

    failures = [name for name, (good, _) in checks.items() if not good]
    return StaircaseReport(
        ok=not failures,
        checks=checks,
        hypocoercive_possible=form.terminal_dim == 0,
        failures=failures,
    )
