"""Run one hypokit command with the public functions of every module traced.

Usage: python3 perfbench/tracer.py SPANS_JSON COMMAND_ID -- <hypokit arguments>

The tracer replaces module attributes with timing wrappers before
``hypokit.cli.main`` runs.  hypokit calls its own functions through module
globals (``core.matrix_exponential``, ``modal_generator`` inside lorentz), so
internal calls are caught as well.  Spans (name, start, end, parent, command
id) and counters stay in memory and are written to SPANS_JSON at exit,
together with whether every wrapped function was restored afterwards.  The
process exits with the command's own exit code.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time
from collections import Counter

#: Traced functions per hypokit module: the layers of the benchmark.
LAYERS = {
    "operator_core": (
        "matrix_exponential", "spectral_norm", "min_eig_hermitian", "psd_sqrt",
        "spectral_abscissa", "hermitian_split", "matrix_from_json", "matrix_to_json",
    ),
    "hc_index": ("equivalence_audit", "index_via_powers", "kalman_kernel_defect",
                 "eigenvector_obstruction"),
    "staircase": ("build_staircase", "verify_staircase"),
    "decay": ("propagator_norm_curve", "fit_short_time", "stability_check"),
    "gallery": ("make_example", "ek_rescale_factor"),
    "lorentz": (
        "appendix_constants", "cubic_bound_verify", "full_propagator_bounds", "modal_generator",
        "simulate_curve", "simulate", "field_from_json", "field_to_json",
    ),
}


def _expm_key(A, t=1.0):
    import numpy as np

    a = np.ascontiguousarray(A)
    return (a.shape, a.dtype.str, hashlib.blake2b(a.tobytes(), digest_size=16).digest(), float(t))


def _expm_n3(A, t=1.0):
    return len(A) ** 3


def _modal_key(n_abs, M, sigma=1.0):
    return (float(n_abs), int(M))


def _curve_points(C, times):
    return len(times)


#: Keys whose repeats within one command are counted as duplicate work.
DUP_KEYS = {
    "operator_core.matrix_exponential": _expm_key,
    "lorentz.modal_generator": _modal_key,
}
#: Per-call amounts summed into counters: traced function -> (counter, amount).
AMOUNTS = {
    "operator_core.matrix_exponential": ("operator_core.matrix_exponential.n3_sum", _expm_n3),
    "decay.propagator_norm_curve": ("decay.propagator_norm_curve.points", _curve_points),
}


class Tracer:
    """Spans and counters of one command, kept in memory."""

    def __init__(self, command_id: int):
        self.command_id = command_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1, command id]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.seen: dict[str, set] = {name: set() for name in DUP_KEYS}

    def call(self, name: str, fn, *args, **kwargs):
        self._count(name, args, kwargs)
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.command_id])
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _count(self, name: str, args, kwargs) -> None:
        if name in DUP_KEYS:
            key = DUP_KEYS[name](*args, **kwargs)
            self.counters[name + ".dups"] += key in self.seen[name]
            self.seen[name].add(key)
        if name in AMOUNTS:
            counter, amount = AMOUNTS[name]
            self.counters[counter] += amount(*args, **kwargs)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced


def install(tracer: Tracer) -> dict:
    """Replace every traced module attribute; return the originals."""
    originals = {}
    for mod_name, names in LAYERS.items():
        mod = importlib.import_module(f"hypokit.{mod_name}")
        for name in names:
            fn = getattr(mod, name)
            originals[(mod, name)] = fn
            setattr(mod, name, tracer.wrap(f"{mod_name}.{name}", fn))
    return originals


def restore(originals: dict) -> bool:
    for (mod, name), fn in originals.items():
        setattr(mod, name, fn)
    return all(getattr(mod, name) is fn for (mod, name), fn in originals.items())


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, command_id, args = argv[0], int(argv[1]), argv[3:]
    t0 = time.perf_counter()
    import hypokit.cli as cli

    for mod_name in LAYERS:
        importlib.import_module(f"hypokit.{mod_name}")
    import_s = time.perf_counter() - t0

    tracer = Tracer(command_id)
    originals = install(tracer)
    try:
        return tracer.call("cli.main", cli.main, args)
    finally:
        restored = restore(originals)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "import_s": import_s,
                    "restored": restored,
                    "spans": tracer.spans,
                    "counters": dict(tracer.counters),
                },
                fh,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
