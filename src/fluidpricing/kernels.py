"""The compiled loops of _kernels.c: their build, their loader and their thread pool.

Every exact pass, Monte Carlo batch and n-product fluid solve runs in these
loops.  Callers reach them through this module's attributes (kernels._kernel(),
kernels._map(...)), never through bindings of their own, so that the package
holds one binding of each and one patch swaps the library on every path.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import subprocess
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path

import numpy as np

from .errors import KernelUnavailableError

_SOURCE = Path(__file__).with_name("_kernels.c")
_CACHE = _SOURCE.parent / "__pycache__"
# -ffp-contract=off: a contracted multiply-add would change the last bits against
# numpy, at every level too (backward's explicit fma() calls round once, as written,
# and give the bits of the division they replace); no -march, so that box_qp and
# every function but the five loops of _kernels.c stay baseline code: _flags adds
# the level of those five (KERNEL_ARCH)
_CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
# the levels of the five loops, widest first, with the /proc/cpuinfo flags each needs
_LEVELS = {
    "x86-64-v4": {"avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "abm", "movbe", "xsave",
                  "avx512f", "avx512bw", "avx512cd", "avx512dq", "avx512vl"},
    "x86-64-v3": {"avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "abm", "movbe", "xsave"},
    "baseline": set(),
}
_STDERR_LINES = 10  # of the compiler's output, in the message of a failed build


@functools.cache
def _kernel():
    """The compiled loops of _kernels.c (backward, forward, noise_sum, forward2,
    backward2, box_qp), the one engine of every exact pass, Monte Carlo batch
    and n-product fluid solve, built on first use and loaded with ctypes by
    fluidpricing.kernels, their one loader; KernelUnavailableError when they
    cannot be built or loaded.  A ctypes call releases the GIL for its length,
    so independent calls run on as many cores as _map has threads."""
    try:
        lib = ctypes.CDLL(str(_compile()))
    except (OSError, subprocess.SubprocessError) as exc:
        # a failed build says why only in the compiler's stderr: keep its tail
        lines = (getattr(exc, "stderr", None) or b"").decode(errors="replace").splitlines()
        raise KernelUnavailableError(
            f"compiled kernels unavailable (a working cc is required): {exc}"
            + "".join(f"\n{line}" for line in lines[-_STDERR_LINES:])) from exc
    f64, u64, i64 = (np.ctypeslib.ndpointer(dtype=dtype, flags="C_CONTIGUOUS")
                     for dtype in (np.float64, np.uint64, np.int64))
    n, x, flag, ptr = ctypes.c_long, ctypes.c_double, ctypes.c_int, ctypes.c_void_p
    lib.backward.argtypes = [f64, ptr, n, f64, flag, x, x, ptr, n, f64, i64, x, x, x, x, n, n,
                             n, n, flag, ptr]
    lib.forward.argtypes = [n, n, u64, x, x, f64, n, x, x, x, flag, f64, f64, f64, flag, x,
                            f64, i64, flag, f64]
    lib.noise_sum.argtypes = [n, n, i64, u64, f64]
    lib.forward2.argtypes = [n, n, u64, f64, f64, f64, f64, f64, f64]
    lib.backward2.argtypes = [f64, n, n, n, i64, i64, f64, f64, f64, f64, flag]
    lib.box_qp.argtypes = [n, *[ptr] * 8]
    for fn in (lib.backward, lib.forward, lib.noise_sum, lib.forward2, lib.backward2,
               lib.box_qp):
        fn.restype = None
    return lib


def _workers() -> int:
    """How many threads run the calls of _map: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _pool(helpers: int) -> ThreadPoolExecutor:
    """This process's kernel pool of helpers threads, created on first use."""
    return _process_pool(os.getpid(), helpers)


# keyed by the process: a forked child has none of its parent's pool threads, so it
# starts a pool of its own (an at-fork hook would outlive a re-import of this module
# and keep its globals alive)
@functools.cache
def _process_pool(pid: int, helpers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(helpers, thread_name_prefix="fluidpricing-kernel")


def _map(fn, calls) -> list:
    """[fn(*call) for call in calls], run by the calling thread together with
    _workers() - 1 helper threads of the kernel pool, created on first use.

    Each thread takes the next call that no thread has taken, so a thread the
    system holds back (a core taken by another process) delays only the call
    it holds, and the calling thread never waits on a helper that has not
    started.  The calls must be independent: each writes only its own arrays.
    The library is resolved here, on the calling thread, so that no two
    threads build or load it."""
    _kernel()
    calls = list(calls)
    results = [None] * len(calls)
    todo, lock = iter(enumerate(calls)), threading.Lock()

    def run():
        while True:
            with lock:
                i, call = next(todo, (None, None))
            if call is None:
                return
            results[i] = fn(*call)

    helpers = _workers() - 1
    futures = [_pool(helpers).submit(run) for _ in range(min(helpers, len(calls) - 1))]
    try:
        run()
    finally:
        # wait() counts a cancelled future as done only once a helper dequeues it
        started = [future for future in futures if not future.cancel()]
        wait(started)
    for future in started:
        future.result()  # a helper's exception
    return results


def _ranges(n: int) -> list[slice]:
    """min(n, 4 * _workers()) contiguous slices, as even as can be, that cover
    0 .. n - 1: the replication ranges of a batch, one kernel call each in _map.
    Four per thread, so that the others take over the ranges of a thread that
    the system holds back."""
    parts = min(n, 4 * _workers())
    bounds = [n * k // parts for k in range(parts + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _cpu_flags() -> set[str]:
    """The flags of this CPU in /proc/cpuinfo, none where that cannot be read."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return next((set(line.split(":", 1)[1].split()) for line in text.splitlines()
                 if line.startswith("flags")), set())


def _level() -> str:
    """The widest level of _LEVELS that this CPU runs on x86-64 glibc; elsewhere the
    baseline."""
    if platform.machine().lower() not in ("x86_64", "amd64") or platform.libc_ver()[0] != "glibc":
        return "baseline"
    flags = _cpu_flags()
    return next(level for level, needs in _LEVELS.items() if needs <= flags)


def _flags(level: str) -> tuple[str, ...]:
    """cc's flags for a library whose five loops run at level."""
    return _CFLAGS if level == "baseline" else (*_CFLAGS, f'-DKERNEL_ARCH="{level}"')


def _compile() -> Path:
    """Path of the shared library for this CPU's level, built into _CACHE unless
    the cached one matches.

    The cache key hashes the source, the flags and the compiler's version, and
    the file name carries the level; the library is written to a temporary file
    and renamed into place, and a new build deletes the libraries it supersedes.
    It keeps those of the other levels, which a host that shares the cache may
    have loaded.
    """
    level = _level()
    flags = _flags(level)
    version = subprocess.run(["cc", "--version"], capture_output=True, check=True).stdout
    key = hashlib.sha256(_SOURCE.read_bytes() + " ".join(flags).encode() + version)
    lib = _CACHE / f"{_SOURCE.stem}-{level}-{key.hexdigest()[:16]}.so"
    if not lib.exists():
        _CACHE.mkdir(exist_ok=True)
        # not *.so, so that the pruning of another build never takes it
        fd, tmp = tempfile.mkstemp(suffix=".so.tmp", dir=_CACHE)
        os.close(fd)
        try:
            subprocess.run(["cc", *flags, "-o", tmp, str(_SOURCE)],
                           capture_output=True, check=True)
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        others = tuple(f"{_SOURCE.stem}-{other}-" for other in _LEVELS if other != level)
        for old in _CACHE.glob("*.so"):
            if old != lib and not old.name.startswith(others):
                old.unlink(missing_ok=True)
    return lib
