"""hypokit: hypocoercivity index, staircase forms, and decay-rate analysis
for finite (or spectrally truncated) dissipative generators.

Public names resolve lazily (PEP 562): ``import hypokit`` loads no numpy,
and ``hypokit.X`` or ``from hypokit import X`` imports only the module that
defines X.  numpy is the only runtime dependency; no module imports scipy.
So a command pays only for the modules it uses, and ``hypokit.cli`` can
choose the BLAS thread count before numpy loads.
"""

import importlib

__version__ = "0.1.0"

#: Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        (
            "DecayCurve",
            "ShortTimeFit",
            "StabilityReport",
            "fit_short_time",
            "propagator_norm_curve",
            "short_time_constant",
            "short_time_curve",
            "stability_check",
        ),
        "decay",
    ),
    **dict.fromkeys(
        (
            "ContractViolationError",
            "DimensionError",
            "HypokitError",
            "InvalidEntryError",
            "NoDecayError",
            "NotPSDError",
            "NumericalError",
            "PreconditionError",
            "RangeError",
        ),
        "errors",
    ),
    **dict.fromkeys(
        (
            "ck_closed_form_norm",
            "ck_matrix",
            "ek_matrix",
            "ek_rescale_factor",
            "make_example",
        ),
        "gallery",
    ),
    **dict.fromkeys(
        (
            "AuditReport",
            "IndexReport",
            "ObstructionWitness",
            "eigenvector_obstruction",
            "equivalence_audit",
            "index_via_powers",
            "kalman_kernel_defect",
        ),
        "hc_index",
    ),
    **dict.fromkeys(
        (
            "KAPPA_LIMIT",
            "LAMBDA0",
            "AppendixCConstants",
            "LorentzField",
            "appendix_constants",
            "cubic_bound_verify",
            "full_propagator_bounds",
            "kappa_truncated",
            "lyapunov_margin",
            "lyapunov_weight",
            "modal_generator",
            "simulate",
            "simulate_curve",
        ),
        "lorentz",
    ),
    **dict.fromkeys(
        (
            "OperatorDecomposition",
            "hermitian_split",
            "matrix_exponential",
            "matrix_from_json",
            "matrix_to_json",
            "min_eig_hermitian",
            "psd_sqrt",
            "spectral_abscissa",
            "spectral_norm",
        ),
        "operator_core",
    ),
    **dict.fromkeys(("StaircaseForm", "build_staircase", "verify_staircase"), "staircase"),
}

_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
