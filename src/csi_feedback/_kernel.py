"""Build and load the compiled loops of ``_kernel.c``.

Those are the codec's encode and decode loops, the fixed point of its gain
recursion, the long-term MSE recursion, the AR trace filter and the packing
of index streams into bytes and back.  The trace filter and its Python loop
both run ``lfilter``'s operation order; only the tests import lfilter.

``load()`` compiles ``_kernel.c`` on first use with the system C compiler
into a per-user cache, ``~/.cache/csi_feedback``, under a name keyed by the
sha256 of the source and the compiler command, and loads it through ctypes.
When that fails it logs one warning and returns None, and the callers run the
Python loops instead, whose outputs are the same bits.  Every non-static
function of ``_kernel.c`` has its ctypes signature in ``_SIGNATURES``:
without one, a float argument fails at call time and an int64 result is cut
to a C int.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import logging
import os
import platform
import subprocess
import tempfile
from pathlib import Path

log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_kernel.c")
# no contraction: a fused multiply-add would round differently from the Python loops
COMPILE = ("cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC")

_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
_SIGNATURES = {
    "encode_rows": (_I64, [_I64, _I64] + [_PTR] * 10),
    "encode_rows_work": (_I64, [_I64, _I64]),
    "decode_row": (None, [_I64, _I64, _PTR, _F64, _F64] + [_PTR] * 4),
    "gain_fixed_point": (_I64, [_I64, _PTR] + [_F64] * 5 + [_I64, _PTR, _PTR]),
    "mse_trajectory": (_I64, [_I64, _PTR] + [_F64] * 4 + [_PTR, _I64]),
    "ar_trace": (None, [_I64, _I64] + [_PTR] * 4),
    "pack_bits": (None, [_I64, _I64, _PTR, _PTR]),
    "unpack_bits": (None, [_I64, _I64, _PTR, _PTR]),
}


def _build() -> Path:
    """Path of the compiled kernel, compiling it if the cache lacks it."""
    key = hashlib.sha256(SOURCE.read_bytes() + " ".join(COMPILE).encode()).hexdigest()[:16]
    cache = Path.home() / ".cache" / "csi_feedback"
    library = cache / f"kernel-{platform.machine()}-{key}.so"
    if library.exists():
        return library
    cache.mkdir(parents=True, exist_ok=True)
    # compile to a private name, then rename: a concurrent reader never sees a partial file
    handle, partial = tempfile.mkstemp(dir=cache, prefix=f"{library.stem}-", suffix=".tmp")
    os.close(handle)
    try:
        subprocess.run(
            [*COMPILE, "-o", partial, str(SOURCE)], check=True, capture_output=True, text=True
        )
        os.replace(partial, library)
    finally:
        Path(partial).unlink(missing_ok=True)
    # keep the two newest builds, so that two checkouts run in turn do not rebuild each
    # time; partial .tmp files stay, and so does a build that cannot be removed
    with contextlib.suppress(OSError):  # a build removed meanwhile
        builds = sorted(cache.glob(f"kernel-{platform.machine()}-*.so"), key=os.path.getmtime)
        for old in builds[:-2]:
            with contextlib.suppress(OSError):
                old.unlink()
    return library


def _open(library: str | Path) -> ctypes.CDLL:
    """A build of ``_kernel.c``, loaded, with the signature of every function declared."""
    lib = ctypes.CDLL(str(library))
    for name, (restype, argtypes) in _SIGNATURES.items():
        function = getattr(lib, name)
        function.restype, function.argtypes = restype, argtypes
    return lib


@functools.cache
def load() -> ctypes.CDLL | None:
    """The compiled kernel, or None after one logged warning if it cannot be built."""
    try:
        return _open(_build())
    except subprocess.CalledProcessError as exc:
        log.warning("compiling %s failed, using the Python loops: %s", SOURCE.name, exc.stderr)
        return None
    except (OSError, RuntimeError) as exc:  # no compiler, unwritable cache, no home directory
        log.warning("cannot build %s, using the Python loops: %s", SOURCE.name, exc)
        return None
