"""The numeric environment a benchmark result was measured in."""
from __future__ import annotations

import ctypes
import glob
import os
import sys

import numpy as np


def _openblas():
    """The OpenBLAS library numpy loaded, or None for another BLAS."""
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _symbol(lib, suffix: str, restype):
    for prefix in ("scipy_openblas_", "openblas_"):
        for tail in ("64_", ""):
            fn = getattr(lib, prefix + suffix + tail, None)
            if fn is not None:
                fn.restype = restype
                fn.argtypes = []
                return fn()
    return None


def blas_info() -> dict:
    """BLAS name, version and configuration, and the thread count in effect."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name", "unknown"),
            "version": blas.get("version", "unknown"),
            "threads": None, "core": None}
    lib = _openblas()
    if lib is not None:
        info["threads"] = _symbol(lib, "get_num_threads", ctypes.c_int)
        core = _symbol(lib, "get_corename", ctypes.c_char_p)
        info["core"] = core.decode() if core else None
    return info


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(seed: int, threads: int) -> dict:
    return {
        "blas": blas_info(),
        "blas_threads_set": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "seed": seed,
    }
