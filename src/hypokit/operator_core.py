"""Dense linear-algebra kernels used by every other module.

All operators are plain ``numpy.ndarray`` matrices.  Real (and integer)
input stays real as float64 and everything else becomes complex128, so a
real matrix, such as a real parity block of a Lorentz mode, is exponentiated,
factored and normed in real arithmetic.  Results agree with the same call on
the complexified input up to roundoff.

One Hermitian test (``_hermitian``) guards every input that must be
Hermitian: ``min_eig_hermitian``, ``psd_sqrt`` and the pair (R, J) of
``staircase``, whose skew J is tested as the Hermitian 1j*J, before the cut
of R behind the staircase and the index.  It rejects A when its distance to the
Hermitian part, ||A - A*||_F / 2, exceeds 1e-8 times the largest column
2-norm of A; a smaller asymmetry is roundoff and is symmetrized away.

One overflow rule: an exponential is refused, by a ``RangeError`` naming t,
exactly when it is not finite (``_expm``, and ``decay._norms`` for a
stepped product).  No bound is evaluated to predict an overflow.

One rank rule (``_rank_cut``) reads a value below RANK_RTOL times the norm
of its operator as zero, so no decision changes when C is scaled, and one
floor rule keeps that cut positive: ||R|| and ||J|| (never ||C||) read as
``sys.float_info.min``, the smallest normal double, wherever they are below it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ContractViolationError,
    DimensionError,
    InvalidEntryError,
    NotPSDError,
    NumericalError,
    RangeError,
)

__all__ = [
    "OperatorDecomposition",
    "as_matrix",
    "hermitian_split",
    "matrix_exponential",
    "spectral_norm",
    "min_eig_hermitian",
    "psd_sqrt",
    "spectral_abscissa",
    "matrix_to_json",
    "matrix_from_json",
]


def as_matrix(A, square: bool = False) -> np.ndarray:
    """Validate and return a finite matrix copy of ``A``: float64 for real or
    integer input, complex128 otherwise."""
    M = np.asarray(A)
    if M.ndim != 2 or M.size == 0:
        raise DimensionError(f"expected a nonempty 2-d matrix, got shape {M.shape}")
    if square and M.shape[0] != M.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    return _finite(M, copy=True)


def _finite(M: np.ndarray, copy: bool) -> np.ndarray:
    """``M`` as float64 (real or integer input) or complex128, checked finite."""
    M = M.astype(np.float64 if M.dtype.kind in "biuf" else np.complex128, copy=copy)
    if not np.isfinite(M).all():
        raise InvalidEntryError("matrix contains NaN or infinite entries")
    return M


@dataclass(frozen=True)
class OperatorDecomposition:
    """Unique split C = R - J with R Hermitian (PSD for accretive C) and J skew:
    the one record of a generator, whose ||C|| (``norm``) and staircase form
    (``form``) are each computed once, on first read."""

    C: np.ndarray
    R: np.ndarray
    J: np.ndarray

    @property
    def dim(self) -> int:
        return self.C.shape[0]

    @cached_property
    def norm(self) -> float:
        """||C||, the largest singular value of C."""
        return spectral_norm(self.C)

    @cached_property
    def form(self):
        """The staircase form of (J, R), ``staircase.build_staircase(R, J)``."""
        from . import staircase

        return staircase.build_staircase(self.R, self.J)


def hermitian_split(C) -> OperatorDecomposition:
    """Split a square matrix as C = R - J with R = (C+C*)/2 and J = (C*-C)/2."""
    C = as_matrix(C, square=True)
    R = _symmetrized(C)
    J = (C.conj().T - C) / 2.0
    return OperatorDecomposition(C=C, R=R, J=J)


def matrix_exponential(A, t: float = 1.0) -> np.ndarray:
    """Return exp(A*t) by ``_expm``; a time that is not finite raises
    ``InvalidEntryError``, a result that is not finite ``RangeError``."""
    A = as_matrix(A, square=True)
    if not np.isfinite(t):
        raise InvalidEntryError("time must be finite")
    return _expm(A, t)


#: Largest eta for which the degree-m Pade approximant has backward error
#: below 2^-53 (Higham 2005; Al-Mohy & Higham 2009 take 4.25 for m = 13).
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068e0, 13: 4.25}
#: Coefficients b_j = (2m-j)! / (j! (m-j)!) of the degree-m Pade numerator
#: p_m(x) = sum_j b_j x^j (scaled so that b_m = 1); the denominator is p_m(-x).
_PADE_COEF = {
    m: [float(math.factorial(2 * m - j) // (math.factorial(j) * math.factorial(m - j)))
        for j in range(m + 1)]
    for m in _PADE_THETA
}


def _onenorm(X: np.ndarray) -> float:
    """||X||_1, the largest column sum (``np.linalg.norm(X, 1)`` takes twice
    as long on the small matrices here)."""
    return float(np.abs(X).sum(axis=0).max())


def _pade_degree(A: np.ndarray) -> tuple[int, int, list[np.ndarray]]:
    """Pade degree m and squarings s for exp(A), with the even powers
    [A^2, A^4, A^6, ...] computed on the way.

    Algorithm 5.1 of Al-Mohy & Higham 2009, with exact 1-norms of A^4 .. A^10
    where the paper estimates them: for the matrices here (n up to a few
    hundred) a product costs less than the estimator.
    """
    norm = _onenorm(A)
    B = np.abs(A) / (norm or 1.0)
    v, p = np.ones(A.shape[0]), 0  # v = 1^T B^p; m only grows from call to call

    def ell(m: int, s: int = 0) -> int:
        """l(2^-s A, m): the extra squarings that keep the backward error of
        the degree-m approximant at unit roundoff u = 2^-53, from
        alpha = ||abs(A)^(2m+1)||_1 / (||A||_1 (2m)! (2m+1)! / (m!)^2).
        The powers of B = abs(A) / ||A||_1, whose column sums are at most one,
        cannot overflow, and 2^-s A has the same B."""
        nonlocal v, p
        while p < 2 * m + 1:
            v = v @ B
            p += 1
        top = float(v.max())
        if top == 0.0:
            return 0
        c_recip = math.factorial(2 * m) * math.factorial(2 * m + 1) // math.factorial(m) ** 2
        log2_alpha_over_u = (
            2 * m * (math.log2(norm) - s) + math.log2(top) - math.log2(c_recip) + 53.0
        )
        return max(math.ceil(log2_alpha_over_u / (2 * m)), 0)

    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    powers = [A2, A4, A6]
    d6 = _onenorm(A6) ** (1.0 / 6.0)
    eta1 = max(_onenorm(A4) ** 0.25, d6)
    for m in (3, 5):
        if eta1 <= _PADE_THETA[m] and ell(m) == 0:
            return m, 0, powers
    A8 = A4 @ A4
    powers.append(A8)
    d8 = _onenorm(A8) ** 0.125
    eta3 = max(d6, d8)
    for m in (7, 9):
        if eta3 <= _PADE_THETA[m] and ell(m) == 0:
            return m, 0, powers
    eta5 = min(eta3, max(d8, _onenorm(A4 @ A6) ** 0.1))
    s = max(math.ceil(math.log2(eta5 / _PADE_THETA[13])), 0) if eta5 > 0.0 else 0
    return 13, s + ell(13, s), powers


def _expm(A: np.ndarray, t: float) -> np.ndarray:
    """exp(A*t) for finite A and t by scaling and squaring a Pade approximant,
    or ``RangeError`` naming t where it is not finite (the one overflow rule,
    module docstring).  That happens even where exp(A t) is tiny: the powers
    A^2 .. A^10 that choose the degree are formed before the scaling and
    overflow once ||A t|| passes about 1e30."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            E = _scaled_pade(A * t)
        except (OverflowError, ValueError):  # an infinite or NaN power norm reached math.ceil
            E = None
    if E is None or not np.isfinite(E).all():
        raise RangeError(f"exp(A t) is not finite in double precision at t = {t:.6g}")
    return E


def _scaled_pade(X: np.ndarray) -> np.ndarray:
    """exp(X) by the scaling and squaring algorithm of Al-Mohy & Higham, "A
    new scaling and squaring algorithm for the matrix exponential" (SIAM J.
    Matrix Anal. Appl. 31(3), 2009): the [m/m] Pade approximant r_m(2^-s X),
    with m and s from ``_pade_degree``, squared s times.  Diagonal input is
    exponentiated entrywise.  Real input gives a real result.
    """
    d = np.diagonal(X)
    if np.array_equal(X, np.diag(d)):
        return np.diag(np.exp(d))
    m, s, powers = _pade_degree(X)
    b = _PADE_COEF[m]
    eye = np.eye(X.shape[0], dtype=X.dtype)
    if m < 13:
        P = [eye, *powers]
        U = X @ sum(b[2 * k + 1] * P[k] for k in range(m // 2 + 1))
        V = sum(b[2 * k] * P[k] for k in range(m // 2 + 1))
    else:
        A2, A4, A6 = powers[:3]
        X, X2, X4, X6 = (X * 2.0**-s, A2 * 2.0 ** (-2 * s), A4 * 2.0 ** (-4 * s),
                          A6 * 2.0 ** (-6 * s))
        U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
                 + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * eye)
        V = (X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
             + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * eye)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def spectral_norm(A):
    """Largest singular value of A: a ``float`` for a matrix.

    A stack of shape (k, m, n) gives the array of its k top singular values,
    from one finiteness check and one batched ``np.linalg.svd``.  LAPACK
    factors each slice on its own, exactly as for that slice alone, so
    ``spectral_norm(S)[i] == spectral_norm(S[i])``.  A slice that is not
    finite raises ``InvalidEntryError``.
    """
    S = np.asarray(A)
    if S.ndim != 3:
        return float(np.linalg.svd(as_matrix(S), compute_uv=False)[0])
    if S.size == 0:
        raise DimensionError(f"expected a nonempty stack of matrices, got shape {S.shape}")
    return np.linalg.svd(_finite(S, copy=False), compute_uv=False)[:, 0]


def _symmetrized(A) -> np.ndarray:
    return (A + A.conj().T) / 2.0


def _hermitian(A, message: str) -> np.ndarray:
    """``as_matrix(A, square=True)`` if A passes the one Hermitian test of the
    module docstring, else ``ContractViolationError`` starting with ``message``.

    The test is never looser than the same one with spectral norms on both
    sides, since ||X||_2 <= ||X||_F and the largest column norm is at most
    ||A||_2, and it needs no SVD.  It norms A / 2^e, max|A / 2^e| in [1, 2),
    scaling each real part by ``ldexp`` (a complex division forms 1 / 2^e, past
    double range for a subnormal max|A|), so that no square under- or overflows.
    """
    A = as_matrix(A, square=True)
    unit = 2.0 ** (e := math.frexp(float(np.abs(A).max()))[1] - 1)
    X = np.ldexp(A.real, -e) + (1j * np.ldexp(A.imag, -e) if A.dtype.kind == "c" else 0.0)
    asym = float(np.linalg.norm(X - X.conj().T)) / 2.0
    scale = float(np.linalg.norm(X, axis=0).max())
    if asym > 1e-8 * scale:
        raise ContractViolationError(
            f"{message}: asymmetry {asym * unit:.3g} exceeds 1e-8 * column norm {scale * unit:.3g}"
        )
    return A


def min_eig_hermitian(A) -> float:
    """Smallest eigenvalue of the symmetrized matrix (A + A*) / 2, for an A
    that passes the one Hermitian test (module docstring)."""
    A = _hermitian(A, "matrix is not Hermitian")
    return float(np.linalg.eigvalsh(_symmetrized(A))[0])


@dataclass(frozen=True)
class _PsdCut:
    """R = V diag(w) V* (w ascending) with its top ``rank`` eigenvalues kept and
    the others read as zero; ``ambiguous`` if some |w| lies within 10x of the cut
    RANK_RTOL * ``norm``, where ``norm`` = max|w| = ||R|| (``_NORM_FLOOR`` for R = 0)."""

    w: np.ndarray
    V: np.ndarray
    norm: float
    rank: int
    ambiguous: bool

    @cached_property
    def factor(self) -> np.ndarray:
        """F = diag(sqrt(w_k / w_max)) V_k*, r x n, where every index family starts."""
        k = self.w.size - self.rank
        return (self.V[:, k:] * np.sqrt(self.w[k:] / self.w[-1])).conj().T


#: The one relative rank cut and the one norm floor (module docstring).
RANK_RTOL = 1e-10
_NORM_FLOOR = sys.float_info.min


def _rank_cut(values: np.ndarray, cut: float) -> tuple[int, bool]:
    """The one rank rule: how many ``values`` reach ``cut``, and whether any
    |value| lies within a factor 10 of it (in [cut / 10, 10 cut]).

    ``_psd_cut`` applies it to the eigenvalues of R, the staircase builder and
    its verifier to the singular values of each subdiagonal block.
    """
    near = (np.abs(values) >= 0.1 * cut) & (np.abs(values) <= 10.0 * cut)
    return int(np.count_nonzero(values >= cut)), bool(near.any())


def _psd_cut(R: np.ndarray) -> _PsdCut:
    """The one decision "is R PSD, and which of its eigenvalues are zero".

    With s = max|w| over the eigenvalues w of (R + R*)/2, an eigenvalue below
    -RANK_RTOL * s raises ``NotPSDError`` and the rank is ``_rank_cut`` at
    RANK_RTOL * s.  The staircase (its block 0 and its kernel count), the
    families' factors and every accretivity check read this cut.  R must have
    passed the one Hermitian test (module docstring); its callers run it.
    """
    w, V = np.linalg.eigh(_symmetrized(R))
    norm = float(max(abs(w[0]), abs(w[-1]), _NORM_FLOOR))
    cut = RANK_RTOL * norm
    if w[0] < -cut:
        raise NotPSDError(f"matrix is not PSD: min eigenvalue {w[0]:.3g} < -{cut:.3g}")
    rank, ambiguous = _rank_cut(w, cut)
    return _PsdCut(w=w, V=V, norm=norm, rank=rank, ambiguous=ambiguous)


def psd_sqrt(R) -> np.ndarray:
    """Hermitian square root S = sqrt(w_max) V_k F >= 0 of a PSD Hermitian R,
    symmetrized, from the one factor F of its cut (``_PsdCut.factor``).

    With s = max|eigenvalue of R|, eigenvalues in (-1e-10 s, 1e-10 s) are
    read as zero, so S has the rank of that cut and S @ S = R up to 1e-10 s.
    An eigenvalue below -1e-10 s raises ``NotPSDError``, and an R that fails
    the one Hermitian test ``ContractViolationError``.
    """
    cut = _psd_cut(_hermitian(R, "R is not Hermitian"))
    S = cut.V[:, cut.w.size - cut.rank:] @ cut.factor
    return _symmetrized(math.sqrt(max(cut.w[-1], 0.0)) * S)


def spectral_abscissa(A) -> float:
    """max Re(lambda) over the eigenvalues of A."""
    A = as_matrix(A, square=True)
    try:
        ev = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare LAPACK failure
        raise NumericalError(f"eigenvalue computation failed: {exc}") from exc
    return float(np.max(ev.real))


def matrix_to_json(A) -> dict:
    """Serialize a matrix to the interchange dict {n_rows, n_cols, entries}.

    Entries are row-major [re, im] pairs; floats round-trip exactly.
    """
    A = as_matrix(A)
    n_rows, n_cols = A.shape
    entries = np.stack((A.real, A.imag), -1).reshape(-1, 2).tolist()
    return {"n_rows": int(n_rows), "n_cols": int(n_cols), "entries": entries}


#: Python types of the JSON numbers (``bool``, a JSON true or false, is not one).
_JSON_NUMBER = (int, float)


def matrix_from_json(obj: dict) -> np.ndarray:
    """Parse the interchange dict, as loaded by ``json``; bare numbers are
    accepted for real entries.

    Sizes that are not JSON integers, and an entry that is neither a number
    nor an [re, im] pair of numbers, raise ``InvalidEntryError``; the latter
    names the entry's row-major index.
    """
    try:
        n_rows, n_cols, raw = obj["n_rows"], obj["n_cols"], obj["entries"]
    except (KeyError, TypeError) as exc:
        raise InvalidEntryError(f"malformed matrix object: {exc}") from exc
    if type(n_rows) is not int or type(n_cols) is not int or type(raw) is not list:
        raise InvalidEntryError(
            "malformed matrix object: n_rows and n_cols must be integers and entries a list"
        )
    if n_rows <= 0 or n_cols <= 0:
        raise DimensionError("n_rows and n_cols must be positive")
    if len(raw) != n_rows * n_cols:
        raise DimensionError(
            f"expected {n_rows * n_cols} entries, got {len(raw)}"
        )
    flat = np.empty(n_rows * n_cols, dtype=np.complex128)
    for i, item in enumerate(raw):
        try:
            re, im = item if type(item) is list else (item, 0.0)
            if type(re) not in _JSON_NUMBER or type(im) not in _JSON_NUMBER:
                raise TypeError
            flat[i] = complex(re, im)
        except (TypeError, ValueError, OverflowError):  # OverflowError: an integer past double range
            raise InvalidEntryError(
                f"entry {i} is not a number or an [re, im] pair of numbers"
            ) from None
    return as_matrix(flat.reshape(n_rows, n_cols))
