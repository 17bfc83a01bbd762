"""The environment a benchmark result was measured in.

Records interpreter and library versions, the BLAS the libraries were built
against, the thread settings, the processor and the source revision. The
thread count in effect is read from each loaded OpenBLAS through ctypes,
since threadpoolctl is not a dependency.
"""
from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

#: environment variables that set the BLAS / OpenMP thread count
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

_THREAD_SYMBOLS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "scipy_openblas_get_num_threads64_")


def thread_env() -> dict[str, str | None]:
    return {name: os.environ.get(name) for name in THREAD_VARS}


def _loaded_openblas() -> list[str]:
    paths = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                name = line.split()[-1]
                if "openblas" in name.lower() and ".so" in name:
                    paths.add(name)
    except OSError:
        return []
    return sorted(paths)


def blas_threads_in_effect() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports, keyed by library file name."""
    out = {}
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        for sym in _THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[Path(path).name] = int(fn())
                break
    return out


def _blas_config(module) -> dict:
    deps = module.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration")}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git(root: Path, *args: str) -> str | None:
    if not (root / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", *args], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def describe(root: Path, thread_env_before: dict[str, str | None]) -> dict:
    """Everything needed to tell two results' environments apart."""
    import numpy
    import scipy

    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_config(numpy),
        "scipy_blas": _blas_config(scipy),
        "thread_env_before": thread_env_before,
        "thread_env": thread_env(),
        "blas_threads": blas_threads_in_effect(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
    }
