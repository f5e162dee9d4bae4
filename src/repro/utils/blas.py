"""Thread count of the BLAS library numpy loaded.

numpy's bundled OpenBLAS starts one thread per core, and between the
small matrix products of a forward pass its idle threads busy-wait.  A
process that scores one micro-batch at a time gains nothing from the
second thread on a ~437-row pass and pays a second core for its spinning;
:func:`limit_blas_threads` turns the pool down at runtime, without the
``OPENBLAS_NUM_THREADS`` variable that only takes effect before numpy
loads.
"""

from __future__ import annotations

import ctypes

#: Setter names across numpy's OpenBLAS builds: scipy-openblas (numpy 2),
#: the 64-bit-integer build of older wheels, and a plain build.
_SETTERS = ("scipy_openblas_set_num_threads64_",
            "openblas_set_num_threads64_",
            "openblas_set_num_threads")


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps") as maps:
            return sorted({line.split()[-1] for line in maps
                           if "openblas" in line.lower()})
    except OSError:  # no procfs: not a platform this can inspect
        return []


def limit_blas_threads(threads: int) -> bool:
    """Run numpy's OpenBLAS on ``threads`` threads from now on.

    Returns ``False``, changing nothing, when numpy's BLAS is not an
    OpenBLAS this process can find (another BLAS, or no ``/proc``).
    """
    for path in _loaded_openblas():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _SETTERS:
            setter = getattr(library, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(threads)
                return True
    return False
