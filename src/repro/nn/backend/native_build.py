"""Build + load machinery for the native (compiled C) backend kernels.

The kernels live in ``_native/kernels.c`` and are compiled on demand
into ``_native/build/kernels-<hash>.so``, where ``<hash>`` digests the
source text plus the exact compiler command line — so editing the C
file, changing ``CC`` or bumping the flag set each produce a fresh
artifact while repeat builds (and CI caches keyed on the same hash) are
a single ``stat`` call.  There is no hard dependency on a toolchain:
when no compiler is found (or ``REPRO_NATIVE=0`` disables the whole
path) :func:`available` reports ``False`` and callers fall back to the
pure-Python backends.

Usage::

    python -m repro.nn.backend.native_build        # build (cached)
    python -m repro.nn.backend.native_build --force

or programmatically :func:`build` / :func:`load` /
:func:`available`.  ``setup.py build_native`` wraps the same entry
point.

The compile is deliberately conservative: ``-O3 -march=native`` with
``-ffp-contract=fast`` but *without* ``-ffast-math`` — linking
crtfastmath.o from a shared library would flip the process-wide
FTZ/DAZ floating-point flags underneath NumPy.  ``-fopenmp`` is probed
and dropped when the toolchain lacks it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

_NATIVE_DIR = Path(__file__).resolve().parent / "_native"
SOURCE = _NATIVE_DIR / "kernels.c"
BUILD_DIR = _NATIVE_DIR / "build"

# Bump to invalidate every cached artifact regardless of source hash.
BUILD_TAG = "1"

_BASE_FLAGS = [
    "-O3",
    "-march=native",
    "-funroll-loops",
    "-ffp-contract=fast",
    "-fPIC",
    "-shared",
    "-std=c99",
]

# ``REPRO_NATIVE_SANITIZE=1`` builds an ASan/UBSan-instrumented variant
# with its own artifact tag.  Loading it into a non-instrumented Python
# needs the ASan runtime preloaded, e.g.:
#   LD_PRELOAD=$(gcc -print-file-name=libasan.so) ASAN_OPTIONS=detect_leaks=0
# (CPython itself "leaks" interned objects at exit; leak detection off.)
_SANITIZE_FLAGS = [
    "-fsanitize=address,undefined",
    "-fno-omit-frame-pointer",
]


class NativeBuildError(RuntimeError):
    """The native extension could not be built or loaded."""


def _disabled() -> bool:
    return os.environ.get("REPRO_NATIVE", "1") == "0"


def sanitize_enabled() -> bool:
    """Whether ``REPRO_NATIVE_SANITIZE=1`` selects the ASan/UBSan build."""
    return os.environ.get("REPRO_NATIVE_SANITIZE", "0") == "1"


def find_compiler() -> Optional[str]:
    """The C compiler to use (``$CC``, else gcc/cc/clang), or ``None``."""
    cc = os.environ.get("CC")
    if cc:
        return cc if shutil.which(cc) else None
    for candidate in ("gcc", "cc", "clang"):
        path = shutil.which(candidate)
        if path:
            return path
    return None


def _command(cc: str, openmp: bool, sanitize: bool = False) -> list[str]:
    flags = list(_BASE_FLAGS)
    if sanitize:
        flags.extend(_SANITIZE_FLAGS)
    if openmp:
        flags.append("-fopenmp")
    return [cc, *flags]


def source_hash(cc: str, openmp: bool, sanitize: bool = False) -> str:
    """Digest of the kernel source + full compiler command line."""
    digest = hashlib.sha256()
    digest.update(SOURCE.read_bytes())
    digest.update(" ".join(_command(cc, openmp, sanitize)).encode())
    digest.update(BUILD_TAG.encode())
    return digest.hexdigest()[:16]


def lib_path(cc: str, openmp: bool, sanitize: bool = False) -> Path:
    # The -san suffix is cosmetic (the hash already covers the flags)
    # but keeps instrumented artifacts recognisable in the build dir.
    suffix = "-san" if sanitize else ""
    return BUILD_DIR / f"kernels-{source_hash(cc, openmp, sanitize)}{suffix}.so"


def _compile(cc: str, openmp: bool, sanitize: bool = False) -> Path:
    out = lib_path(cc, openmp, sanitize)
    if out.exists():
        return out
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    # Compile to a temp file then os.replace: concurrent builders
    # (pytest-xdist, parallel CI shards) race benignly to an atomic
    # rename instead of loading a half-written object.
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=BUILD_DIR)
    os.close(fd)
    try:
        proc = subprocess.run(
            [*_command(cc, openmp, sanitize), "-o", tmp, str(SOURCE)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise NativeBuildError(
                f"compiling {SOURCE.name} with {cc!r} failed:\n{proc.stderr}"
            )
        os.replace(tmp, out)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return out


def build(force: bool = False, sanitize: Optional[bool] = None) -> Path:
    """Compile the kernels (cached on source hash); return the .so path.

    Probes ``-fopenmp`` first and falls back to a single-threaded build
    when the toolchain rejects it.  ``sanitize`` defaults to
    ``REPRO_NATIVE_SANITIZE=1`` and selects the ASan/UBSan variant.
    Raises :class:`NativeBuildError` when disabled via
    ``REPRO_NATIVE=0``, no compiler is found, or both compiles fail.
    """
    if _disabled():
        raise NativeBuildError("native backend disabled via REPRO_NATIVE=0")
    if not SOURCE.exists():
        raise NativeBuildError(f"kernel source missing: {SOURCE}")
    cc = find_compiler()
    if cc is None:
        raise NativeBuildError(
            "no C compiler found (set $CC or install gcc/clang)"
        )
    if sanitize is None:
        sanitize = sanitize_enabled()
    if force:
        for stale in BUILD_DIR.glob("kernels-*.so"):
            stale.unlink(missing_ok=True)
    try:
        return _compile(cc, openmp=True, sanitize=sanitize)
    except NativeBuildError:
        return _compile(cc, openmp=False, sanitize=sanitize)


_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
_F32 = ctypes.c_float
_INT = ctypes.c_int

_SIGNATURES = {
    # name -> (n_pointer_args, n_i64_dims, trailing_float_args, result);
    # the conv and batch-norm entry points return 0 when their scratch
    # allocation fails.
    "conv2d_forward": (4, 9, 0, _INT),
    "conv2d_backward_input": (3, 9, 0, _INT),
    "conv2d_backward_weight": (4, 9, 0, _INT),
    "unfold": (2, 9, 1, None),
    "fold": (2, 9, 0, None),
    "max_pool2d": (3, 9, 0, None),
    "max_pool2d_backward": (3, 9, 0, None),
    "batchnorm_forward": (8, 5, 1, _INT),
    "batchnorm_backward": (7, 4, 0, _INT),
}


def _configure(lib: ctypes.CDLL) -> ctypes.CDLL:
    for name, (n_ptr, n_dim, n_f32, result) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = [_PTR] * n_ptr + [_I64] * n_dim + [_F32] * n_f32
        fn.restype = result
    return lib


# One loaded library per build variant (plain / sanitized).
_LIBS: dict[bool, ctypes.CDLL] = {}


def _pin_forked_child() -> None:
    """Fork-safety: libgomp's worker threads do not survive ``fork``, so
    a child that inherits a library which already ran a parallel region
    hangs in its next one.  Pinning the child to one OpenMP thread makes
    every region a team of one (same bits: the loops are static
    partitions of independent planes) and keeps the cheap fork start
    method for ``ProcessTransport`` ranks and tune pool workers."""
    for lib in _LIBS.values():
        pin = getattr(lib, "omp_set_num_threads", None)  # absent without -fopenmp
        if pin is not None:
            pin.argtypes, pin.restype = [ctypes.c_int], None
            pin(1)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pin_forked_child)


def load(force: bool = False, sanitize: Optional[bool] = None) -> ctypes.CDLL:
    """Build if needed and load the shared library (per-variant singleton)."""
    if sanitize is None:
        sanitize = sanitize_enabled()
    if force or sanitize not in _LIBS:
        _LIBS[sanitize] = _configure(
            ctypes.CDLL(str(build(force=force, sanitize=sanitize)))
        )
    return _LIBS[sanitize]


def available() -> bool:
    """True when the native kernels can be built and loaded here."""
    if _disabled():
        return False
    try:
        load()
    except (NativeBuildError, OSError):
        return False
    return True


def main(argv: Optional[list[str]] = None) -> int:
    """CLI: build the extension, print the artifact path."""
    args = sys.argv[1:] if argv is None else argv
    force = "--force" in args
    sanitize = True if "--sanitize" in args else None
    try:
        path = build(force=force, sanitize=sanitize)
    except NativeBuildError as exc:
        sys.stderr.write(f"native build failed: {exc}\n")
        return 1
    sys.stdout.write(f"{path}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
