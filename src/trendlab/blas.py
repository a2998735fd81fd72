"""numpy's bundled OpenBLAS, pinned to one thread in every process that
runs the kernel.

OpenBLAS splits a GEMM differently on one thread than on two, so the last
bits of a large batch's results depend on its thread count; and a forked
process inherits its parent's thread pool, so two processes of two BLAS
threads each oversubscribe two cores. `trendlab.network` calls
`pin_one_thread` when it is imported: the caller and every helper it forks
then run one BLAS thread whatever `OPENBLAS_NUM_THREADS` says, and the bits
do not depend on it.

The pin calls the thread-count setter of the OpenBLAS build that numpy's
wheels bundle (`scipy_openblas_set_num_threads64_`), looked up through
numpy's own extension module, which links it. Where numpy links another
BLAS the symbol is missing, nothing is set, and `describe` says so.
"""

from __future__ import annotations

import ctypes


def _bundled_openblas() -> ctypes.CDLL | None:
    """numpy's extension module as a library whose lookups reach the
    bundled OpenBLAS, or None where that OpenBLAS is not linked."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    try:
        library = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    signatures = {"set_num_threads": ([ctypes.c_int], None), "get_num_threads": ([], ctypes.c_int),
                  "get_corename": ([], ctypes.c_char_p)}
    for name, (argtypes, restype) in signatures.items():
        function = getattr(library, f"scipy_openblas_{name}64_", None)
        if function is None:
            return None
        function.argtypes, function.restype = argtypes, restype
    return library


_OPENBLAS = _bundled_openblas()


def pin_one_thread() -> None:
    """Run every later BLAS call of this process on one thread."""
    if _OPENBLAS is not None:
        _OPENBLAS.scipy_openblas_set_num_threads64_(1)


def describe() -> str:
    """The OpenBLAS core kernel and its thread count now, as "core SkylakeX,
    threads 1"; "unpinned" where the bundled OpenBLAS is not linked."""
    if _OPENBLAS is None:
        return "unpinned"
    core = _OPENBLAS.scipy_openblas_get_corename64_().decode()
    return f"core {core}, threads {_OPENBLAS.scipy_openblas_get_num_threads64_()}"
