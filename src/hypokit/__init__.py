"""hypokit: hypocoercivity index, staircase forms, and decay-rate analysis
for finite (or spectrally truncated) dissipative generators.

The public names of each module are its ``__all__``; import them from it,
as in ``from hypokit import lorentz`` or ``from hypokit.decay import
propagator_norm_curve``.  ``import hypokit`` loads no numpy, so a command
pays only for the modules it uses, and ``hypokit.cli`` can choose the BLAS
thread count before numpy loads.  numpy is the only runtime dependency.
"""

__version__ = "0.1.0"
