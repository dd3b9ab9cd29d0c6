"""Entry points to the letter-sequence kernels.

The word engine and the oracles call the kernels through this module, not
through `_pykernel` directly, so there is one place where the kernel
implementation is bound (and where a profiler can wrap each call).
"""

from . import _pykernel


def backend_name():
    return "pure"


def canonicalize(data, masks):
    return _pykernel.canonicalize(data, masks)


def closure_canonical(data, masks, max_states):
    return _pykernel.closure_canonical(data, masks, max_states)


def closure_equal(w1, w2, masks, max_states):
    return _pykernel.closure_equal(w1, w2, masks, max_states)
