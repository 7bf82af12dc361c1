"""Build and load the compiled loops of ``_kernel.c``.

Those are the codec's encode and decode loops, the fixed point of its gain
recursion, the long-term MSE recursion, the AR trace filter and the packing
of index streams into bytes and back.  The trace filter and its Python loop
both run ``lfilter``'s operation order; only the tests import lfilter.

``load()`` compiles ``_kernel.c`` on first use with the system C compiler
into a per-user cache, ``~/.cache/csi_feedback``, under a name keyed by the
sha256 of the source and the compiler command, and loads it through ctypes.
The command is ``COMPILE``, plus ``-msse4.1`` on an x86-64 host whose CPU
has SSE4.1 (``_command``), so that ``floor`` is one instruction instead of
the compiler's emulation for the SSE2 baseline; floor is exact either way,
so the bits are the same.
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
SSE41 = "-msse4.1"
CPUINFO = Path("/proc/cpuinfo")

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


def _command(machine: str, cpuinfo: Path = CPUINFO) -> tuple[str, ...]:
    """The compile command on a host of architecture ``machine``.

    ``COMPILE`` plus ``SSE41`` on x86-64 when the first ``flags`` line of
    ``cpuinfo`` names sse4_1; ``COMPILE`` on another machine, or when the
    file cannot be read or names no such flag, since a build for SSE4.1
    stops on an older CPU with an illegal instruction.
    """
    if machine != "x86_64":
        return COMPILE
    try:
        with cpuinfo.open("rb") as lines:
            flags = next((line for line in lines if line.startswith(b"flags")), b"")
    except OSError:
        return COMPILE
    return (*COMPILE, SSE41) if b"sse4_1" in flags.partition(b":")[2].split() else COMPILE


def _library(command: tuple[str, ...]) -> Path:
    """Cache path of the kernel built by ``command``, keyed by the source and the command."""
    key = hashlib.sha256(SOURCE.read_bytes() + " ".join(command).encode()).hexdigest()[:16]
    return Path.home() / ".cache" / "csi_feedback" / f"kernel-{platform.machine()}-{key}.so"


def _build() -> Path:
    """Path of the compiled kernel, compiling it if the cache lacks it."""
    command = _command(platform.machine())
    library = _library(command)
    if library.exists():
        return library
    cache = library.parent
    cache.mkdir(parents=True, exist_ok=True)
    # compile to a private name, then rename: a concurrent reader never sees a partial file
    handle, partial = tempfile.mkstemp(dir=cache, prefix=f"{library.stem}-", suffix=".tmp")
    os.close(handle)
    try:
        subprocess.run(
            [*command, "-o", partial, str(SOURCE)], check=True, capture_output=True, text=True
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
