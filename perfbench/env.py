"""Environment fingerprint of one benchmark run.

Records what a reader needs to compare two runs: numpy version and BLAS
build, the BLAS thread cap this process set, the CPU count, the source
revision (when the checkout carries git metadata) and a measured memory
bandwidth, ``env.memcpy_gbps``, that the kernel roofline fractions divide by.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Dict, Optional

#: Environment variables read by the BLAS / OpenMP runtimes numpy may load.
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Assumed last-level cache when the machine does not report one.
DEFAULT_LLC_BYTES = 32 * 2**20
#: Upper limit on the bandwidth probe's buffer, so a huge reported cache
#: cannot make the probe allocate gigabytes on a shared machine.
MAX_PROBE_BYTES = 2 * 2**30


def cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_blas_threads() -> Dict[str, str]:
    """Cap every BLAS thread variable at the CPU count; returns the settings.

    Must run before numpy is imported.  A variable the caller already set to
    a smaller value is left alone.
    """
    cap = cpu_count()
    settings = {}
    for variable in BLAS_THREAD_VARIABLES:
        current = os.environ.get(variable)
        if current is None or not current.isdigit() or int(current) > cap:
            os.environ[variable] = str(cap)
        settings[variable] = os.environ[variable]
    return settings


def last_level_cache_bytes() -> Optional[int]:
    """Size of the largest CPU cache the kernel reports, or ``None``."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = []
    try:
        entries = os.listdir(base)
    except OSError:
        return None
    for entry in entries:
        if not entry.startswith("index"):
            continue
        try:
            with open(os.path.join(base, entry, "size"), encoding="ascii") as handle:
                text = handle.read().strip()
        except OSError:
            continue
        scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if digits.isdigit():
            sizes.append(int(digits) * scale)
    return max(sizes) if sizes else None


def measure_memcpy_gbps(llc_bytes: Optional[int] = None, repeats: int = 5) -> Dict[str, float]:
    """Copy bandwidth (bytes read + written per second) past the last-level cache.

    One buffer of at least four times the last-level cache is allocated and
    its first half copied onto its second half, so every copy streams the
    whole buffer through memory.  Reports the best of ``repeats`` copies.
    """
    import numpy as np

    llc = llc_bytes if llc_bytes is not None else (last_level_cache_bytes() or DEFAULT_LLC_BYTES)
    buffer_bytes = min(MAX_PROBE_BYTES, max(4 * llc, 64 * 2**20))
    half = buffer_bytes // 16  # float64 elements per half
    buffer = np.ones(2 * half, dtype=np.float64)
    source, target = buffer[:half], buffer[half:]
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        np.copyto(target, source)
        best = min(best, time.perf_counter() - start)
    moved = 2 * source.nbytes
    del buffer, source, target
    return {
        "memcpy_gbps": moved / best / 1e9,
        "memcpy_buffer_bytes": int(2 * half * 8),
        "llc_bytes": int(llc),
    }


def git_revision(root: str) -> str:
    """Commit id of the checkout, read from ``.git`` without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="ascii") as handle:
            head = handle.read().strip()
    except OSError:
        return "unavailable"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(root, ".git", ref), encoding="ascii") as handle:
            return handle.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(root, ".git", "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unavailable"


def blas_description() -> str:
    """Name and version of the BLAS numpy was built against."""
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        return "unknown"


def fingerprint(root: str, blas_threads: Dict[str, str], bandwidth: Dict[str, float]) -> Dict:
    """The environment record printed and stored with every run."""
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_description(),
        "blas_thread_cap": blas_threads,
        "nproc": cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_revision(root),
        **bandwidth,
    }
