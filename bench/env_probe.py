"""Print, as one JSON object, the environment a benchmark child runs in:
Python and numpy versions, the BLAS numpy was built against, the number of
threads that BLAS will use, and where ``ergokit`` is imported from."""

from __future__ import annotations

import ctypes
import json
import platform

import numpy as np

_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_info() -> tuple[str, int | None]:
    """Name/version of numpy's BLAS and its thread count (None if unknown).
    The count is read from the loaded OpenBLAS library itself."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line and line.count("/")})
    except OSError:
        paths = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return name, int(query())
    return name, None


def main() -> None:
    import ergokit

    blas, threads = blas_info()
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "ergokit": ergokit.__file__,
    }))


if __name__ == "__main__":
    main()
