"""Session-wide pytest hooks.

The byte-for-byte tests compare against files written with OpenBLAS's
SkylakeX kernels; another BLAS kernel can change the last bit of a float.
The report header names the numpy version and the OpenBLAS core in use, so
that such a failure names its cause. scripts/check_desk_outputs.sh prints
the same core through `blas_core`.
"""

import ctypes
import glob
import os

import numpy as np


def blas_core() -> str:
    """The core OpenBLAS picked for numpy's bundled scipy-openblas, or
    "unknown" when numpy bundles no such library."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return "unknown"


def pytest_report_header(config):
    return f"numpy {np.__version__}, OpenBLAS core {blas_core()}"
