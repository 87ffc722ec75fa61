"""Description of the machine and the code a benchmark run measured."""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

import numpy as np

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def caches() -> dict[str, str]:
    """Per-core cache sizes of cpu0 as the kernel reports them, e.g. {"L2": "2048K"}."""
    out = {}
    for index in sorted(_CACHE_DIR.glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            suffix = {"Data": "d", "Instruction": "i"}.get(kind or "", "")
            out[f"L{level}{suffix}"] = size
    return out


def blas() -> str | None:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # the layout of numpy's build report is not stable
        return None


def commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git; None outside a clone."""
    head = _read(root / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(root / ".git" / ref)
    if direct:
        return direct
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    """sha256 over the package sources, identifying the code where no commit is known."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def describe(root: Path, src: Path) -> dict:
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches_per_core": caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas(),
        "commit": commit(root),
        "src_sha256": source_digest(src / "fluidpricing"),
    }
