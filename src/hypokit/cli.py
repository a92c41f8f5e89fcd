"""Command-line front end.

Exit status: 0 success, 1 validation error (arguments, files, shapes),
2 numerical failure, 3 a property-violation report (a check ran and failed).

BLAS runs on one thread by default.  Importing this module sets
OPENBLAS_NUM_THREADS=1 when none of OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or
MKL_NUM_THREADS is set and numpy is not loaded yet (``import hypokit``
loads no numpy, so ``python -m hypokit.cli`` and the ``hypokit`` script
qualify).  The matrices here are small (finite sections up to
n = 200, Lorentz blocks of size about M+1), and handing them to a second
thread costs more than it saves.  On a 2-core box (OpenBLAS 0.3.31), at
their defaults, one thread against two took ``analyze`` on a planted
n = 200 pair from 21.1 to 8.9 s, ``lorentz simulate --random`` from 2.91 to
0.90 s, ``lorentz verify`` from 2.50 to 1.76 s and ``lorentz lyapunov``
from 0.78 to 0.48 s, and left ``lorentz constants`` at 0.92-0.94 s; no
command was slower.  To use more threads, set one of the three variables
before the process starts, e.g. ``OPENBLAS_NUM_THREADS=2 hypokit analyze``;
it is then left exactly as set.  A process that loaded numpy before
importing this module (tests, notebooks) keeps its environment untouched.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if "numpy" not in sys.modules and not any(var in os.environ for var in _THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


class _UsageError(Exception):
    pass


class _FileError(Exception):
    """An input that cannot be read or an output that cannot be written."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage errors to 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="hypokit", description="hypocoercivity analysis toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--output", default=None, help="output path (default stdout)")

    sp = sub.add_parser("analyze", help="index audit + stability + short-time law", description=(
        "The staircase decides the index m; each coercive family reads m (resolved), "
        "unresolved or inconclusive from its levels m - 1 and m against 10 times the "
        "floor eps^2 n ||stack||^2, the roundoff of its level-m stack, or none with no "
        "index. A family's kappa_m is null below 10 times the same floor of its "
        "unnormalized stack (block j times ||sqrt R|| ||X||^j), or where its weights leave "
        "double range. A unitary similarity moved the power families' kappa by up to "
        "3.2e-11 relative on generic n = 100 and 200 pairs, and the commutators' by up "
        "to 7.5e-3 on E_25, whose kappa is only 17.6 times its floor; family_checks "
        "gives each floor as kappa_floor. "
        "short_time_law gives m, the exponent 2m + 1 and the constant c of "
        "||exp(-Ct)|| = 1 - c t^(2m+1) + ..., read off the staircase chain (null with no "
        "index; c null, with a reason, outside double range). short_time_fit is a "
        "log-log fit of the same law on a time grid: its c_est was off c by 5.7e-4 "
        "relative on E_4 and by 6.3% on E_8, and it is flagged where c_est is not a "
        "positive normal float. Exit 3 when a family is "
        "inconclusive or a staircase rank decision (cut at 1e-10 times the norm of R "
        "or J) is ambiguous."))
    sp.add_argument("--input", required=True)
    common(sp)

    sp = sub.add_parser("staircase", help="staircase form of the input pair", description=(
        "Exit 3 when the verification fails or a rank decision (cut at 1e-10 times the "
        "norm of R or J) is ambiguous; the form's warnings name it."))
    sp.add_argument("--input", required=True)
    common(sp)

    sp = sub.add_parser("decay", help="propagator norm curve as CSV")
    sp.add_argument("--input", required=True)
    sp.add_argument("--tmax", type=float, default=3.0)
    sp.add_argument("--steps", type=int, default=300)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    common(sp)

    sp = sub.add_parser("gallery", help="emit a worked example matrix")
    sp.add_argument("--name", required=True)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--blocks", type=int, default=None)
    sp.add_argument("--dim", type=int, default=None)
    common(sp)

    sp = sub.add_parser("lorentz", help="kinetic-equation analyses")
    lsub = sp.add_subparsers(dest="lorentz_command", required=True)

    lp = lsub.add_parser("kappa", help="mixing coercivity constant at cutoff M")
    lp.add_argument("--M", type=int, default=200)
    common(lp)

    lp = lsub.add_parser("lyapunov", help="weighted decay-rate margins for modes 1..N")
    lp.add_argument("--N", type=int, default=50)
    lp.add_argument("--M", type=int, default=64)
    common(lp)

    lp = lsub.add_parser("constants", help="short-time constant pipeline", description=(
        "c3 holds about 5 correct digits: at M = 96 one ulp of kappa1 moves it by 6e-6 "
        "relative. The certificate c = min(c2, c3) is c2 at these cutoffs."))
    lp.add_argument("--M", type=int, default=128)
    common(lp)

    lp = lsub.add_parser("verify", help="cubic bound check of the modal norm envelope")
    lp.add_argument("--N", type=int, default=20)
    lp.add_argument("--M", type=int, default=64)
    lp.add_argument("--M-constants", type=int, default=128, dest="M_constants")
    lp.add_argument("--steps", type=int, default=50)
    common(lp)

    lp = lsub.add_parser("simulate", help="evolve a truncated field, report decay")
    lp.add_argument("--input", default=None, help="field JSON (or use --random)")
    lp.add_argument("--random", action="store_true", help="seeded random initial field")
    lp.add_argument("--N", type=int, default=16)
    lp.add_argument("--M", type=int, default=32)
    lp.add_argument("--seed", type=int, default=0)
    lp.add_argument("--tmax", type=float, default=30.0)
    lp.add_argument("--steps", type=int, default=20)
    lp.add_argument("--final-field", default=None, dest="final_field", help=(
        "write the final field as JSON, each mode (n1, n2) in the frame rotated by "
        "atan2(n2, n1): evolved by the generator of its magnitude at angle 0"))
    common(lp)

    return p


def _emit(*outputs: tuple[str, str | None]) -> None:
    """Write each (text, path) pair; a path of None is stdout.

    A regular or new file is first written in full to a temporary file in
    its directory; the temporary files replace their targets (``os.replace``)
    only after every output is written, so a failed write leaves each
    existing file as it was and creates none.  A replaced file keeps its
    permission bits, and an existing file that the user may not write is
    refused before anything is staged, as a direct ``open`` would refuse it
    (``os.replace`` needs only write permission on the directory).  Other
    paths (devices, directories) are opened directly.
    """
    for _, path in outputs:
        if path is not None and os.path.isfile(path) and not os.access(path, os.W_OK):
            raise _FileError(f"cannot write output: {path}: Permission denied")
    staged: dict[str, str] = {}  # output path -> its temporary file
    path = None  # the output being written, named in the error
    try:
        for text, path in outputs:
            if path is not None and (os.path.isfile(path) or not os.path.exists(path)):
                head, name = os.path.split(os.path.realpath(path))
                tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
                with open(tmp, "x", encoding="utf-8") as fh:
                    staged[path] = tmp
                    fh.write(text)
                if os.path.isfile(path):  # keep the permission bits of the file it replaces
                    os.chmod(tmp, os.stat(path).st_mode & 0o7777)
        for text, path in outputs:
            if path is None:
                sys.stdout.write(text if text.endswith("\n") else text + "\n")
            elif path not in staged:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
        for path, tmp in staged.items():
            os.replace(tmp, os.path.realpath(path))
    except OSError as exc:
        for tmp in staged.values():
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise _FileError(f"cannot write output: {path}: {exc.strerror or exc}") from None


def _to_json(obj) -> str:
    # no indent: any indent selects json's pure-Python encoder, which took
    # 0.70 of the 1.2 s of ``staircase`` at n = 200
    return json.dumps(obj, sort_keys=True)


def _emit_json(obj, path: str | None) -> None:
    _emit((_to_json(obj), path))


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _FileError(f"cannot read input: {exc}") from None


def _load_matrix(path: str):
    from . import operator_core as core

    return core.matrix_from_json(_read_json(path))


def _cmd_analyze(args) -> int:
    import numpy as np

    from . import decay, hc_index
    from . import operator_core as core
    from .errors import NoDecayError

    dec = core.hermitian_split(_load_matrix(args.input))
    audit = hc_index.equivalence_audit(dec)
    stab = decay.stability_check(dec)
    scale = max(dec.norm, 1e-300)
    times = np.geomspace(1e-4 / scale, 10.0 / scale, 220)
    try:
        fit = decay.fit_short_time(decay.short_time_curve(dec, times)).to_json_dict()
    except NoDecayError:
        fit = None
    out = {
        "audit": audit.to_json_dict(),
        "stability": stab.to_json_dict(),
        "short_time_fit": fit,
        "short_time_law": audit.short_time_law,
    }
    _emit_json(out, args.output)
    return 0 if audit.agree and not audit.warnings else 3


def _cmd_staircase(args) -> int:
    from . import operator_core as core
    from .staircase import verify_staircase

    dec = core.hermitian_split(_load_matrix(args.input))
    report = verify_staircase(dec.form, dec.R, dec.J)
    out = dec.form.to_json_dict()
    out["verification"] = report.to_json_dict()
    _emit_json(out, args.output)
    return 0 if report.ok and not dec.form.warnings else 3


def _uniform_times(tmax: float, steps: int):
    """The grid of ``decay`` and ``lorentz simulate``: steps + 1 times on [0, tmax]."""
    import numpy as np

    from .errors import PreconditionError

    if steps < 0:
        raise PreconditionError(f"--steps must be nonnegative, got {steps}")
    if not np.isfinite(tmax):
        raise PreconditionError(f"--tmax must be finite, got {tmax}")
    return np.linspace(0.0, tmax, steps + 1)


def _cmd_decay(args) -> int:
    from . import decay

    times = _uniform_times(args.tmax, args.steps)
    A = _load_matrix(args.input)
    curve = decay.propagator_norm_curve(A, times)
    if args.format == "csv":
        _emit((curve.to_csv(), args.output))
    else:
        _emit_json(
            {"t": [float(t) for t in curve.times], "norm": [float(v) for v in curve.norms]},
            args.output,
        )
    return 0


def _cmd_gallery(args) -> int:
    from . import gallery
    from . import operator_core as core

    params = {}
    if args.k is not None:
        params["k"] = args.k
    if args.blocks is not None:
        params["blocks"] = args.blocks
    if args.dim is not None:
        params["dim"] = args.dim
    A = gallery.make_example(args.name, **params)
    _emit_json(core.matrix_to_json(A), args.output)
    return 0


def _cmd_lorentz(args) -> int:
    from . import lorentz
    from .errors import PreconditionError

    cmd = args.lorentz_command
    if cmd == "kappa":
        _emit_json({"M": args.M, "kappa": lorentz.kappa_truncated(args.M)}, args.output)
        return 0

    if cmd == "lyapunov":
        if args.N < 1:
            raise PreconditionError(f"--N must be at least 1, got {args.N}")
        margins = {str(n): lorentz.lyapunov_margin(n, args.M) for n in range(1, args.N + 1)}
        worst = min(margins.values())
        _emit_json(
            {
                "M": args.M,
                "alpha": lorentz.ALPHA,
                "lambda0": lorentz.LAMBDA0,
                "margins": margins,
                "min_margin": worst,
            },
            args.output,
        )
        return 0 if worst >= -1e-10 else 3

    if cmd == "constants":
        consts = lorentz.appendix_constants(args.M)
        out = consts.to_json_dict()
        ok = out["relations_hold"] = consts.relations_hold()
        _emit_json(out, args.output)
        return 0 if ok else 3

    if cmd == "verify":
        lorentz._check_grid(args.N, args.steps)  # before the constants pipeline runs
        consts = lorentz.appendix_constants(args.M_constants)
        report = lorentz.cubic_bound_verify(args.N, args.M, consts, args.steps)
        _emit_json({"constants": consts.to_json_dict(), **report.to_json_dict()}, args.output)
        return 0 if report.ok else 3

    # simulate: the subparsers are required, so argparse admits no other name
    import numpy as np

    times = _uniform_times(args.tmax, args.steps)
    if args.random:
        if args.seed < 0:
            raise PreconditionError(f"--seed must be nonnegative, got {args.seed}")
        rng = np.random.default_rng(args.seed)
        field0 = lorentz.LorentzField.random(rng, args.N, args.M)
    elif args.input:
        field0 = lorentz.field_from_json(_read_json(args.input))
    else:
        raise PreconditionError("simulate needs --input or --random")
    final, reports = lorentz.simulate_curve(field0, times)
    lines = ["t,distance,bound"]
    for rep in reports:
        lines.append(f"{rep.t:.17g},{rep.distance:.17g},{rep.bound:.17g}")
    outputs = [("\n".join(lines) + "\n", args.output)]
    if args.final_field:
        outputs.append((lorentz.field_to_json(final), args.final_field))
    _emit(*outputs)
    ok = all(rep.bound_ok and rep.mass_ok for rep in reports)
    return 0 if ok else 3


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"hypokit: {exc}", file=sys.stderr)
        return 1

    from .errors import (
        ContractViolationError,
        DimensionError,
        InvalidEntryError,
        NoDecayError,
        NumericalError,
        PreconditionError,
        RangeError,
    )

    handlers = {
        "analyze": _cmd_analyze,
        "staircase": _cmd_staircase,
        "decay": _cmd_decay,
        "gallery": _cmd_gallery,
        "lorentz": _cmd_lorentz,
    }
    try:
        return handlers[args.command](args)
    except (DimensionError, InvalidEntryError, PreconditionError, MemoryError) as exc:
        # a size too large to allocate is invalid input, not a crash
        print(f"hypokit: invalid input: {exc}", file=sys.stderr)
        return 1
    except _FileError as exc:
        print(f"hypokit: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, RangeError, ContractViolationError, NoDecayError) as exc:
        print(f"hypokit: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
