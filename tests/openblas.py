"""The thread count of the OpenBLAS that numpy bundles, read and set through
the library itself. Imports no `patchcc` module, so a test can set the
count before the package's import pins it."""

import ctypes
import glob
import os

import numpy as np

# the (setter, getter) pair of each OpenBLAS build numpy wheels bundle: the
# scipy-openblas64 of numpy 2, the ILP64 suffix, and an unprefixed build
THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def openblas_threads():
    """(set_threads(n), get_threads()) of numpy's bundled OpenBLAS: the
    wheel's `numpy.libs` library, or `numpy/.dylibs` on macOS. None where
    numpy bundles none; a library with none of the known setters fails the
    calling test, so a build with other symbol names shows up."""
    here = os.path.dirname(np.__file__)
    paths = (glob.glob(os.path.join(here, "..", "numpy.libs", "*openblas*"))
             + glob.glob(os.path.join(here, ".dylibs", "*openblas*")))
    for path in paths:
        lib = ctypes.CDLL(path)
        for set_name, get_name in THREAD_SYMBOLS:
            if hasattr(lib, set_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
        raise AssertionError(f"{path} has none of the setters {THREAD_SYMBOLS}")
    return None
