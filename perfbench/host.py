"""Host context for every report: a fingerprint and two measured ceilings.

The reference P2P kernel below is the benchmark's own, written apart
from the library's ``direct.py``, for two reasons: its rate is the
near-field ceiling, which must not move when the library kernel
changes, and it is the exact oracle every operation is checked
against, which must not share code with what it checks.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

#: Target rows per tile of the reference kernel.  Each tile holds a few
#: ``(rows, sources)`` float64 arrays; the row count is chosen so one
#: array stays near 2 MiB, inside a core's L2.
_TILE_PAIRS = 1 << 18


def _tiles(n_targets: int, n_sources: int):
    rows = max(1, _TILE_PAIRS // max(n_sources, 1))
    for lo in range(0, n_targets, rows):
        yield lo, min(lo + rows, n_targets)


def ref_potential(targets, sources, charges, softening=0.0):
    """Exact ``sum_j q_j / sqrt(|x_i - s_j|^2 + eps^2)`` at each target.

    Coincident pairs (``r = 0`` with no softening) contribute nothing,
    which is self-exclusion when the targets are the sources.
    """
    out = np.empty(targets.shape[0])
    eps2 = softening * softening
    for lo, hi in _tiles(targets.shape[0], sources.shape[0]):
        t = targets[lo:hi]
        r2 = np.subtract.outer(t[:, 0], sources[:, 0])
        r2 *= r2
        for ax in (1, 2):
            d = np.subtract.outer(t[:, ax], sources[:, ax])
            d *= d
            r2 += d
        if eps2:
            r2 += eps2
        np.sqrt(r2, out=r2)
        np.divide(1.0, r2, out=r2, where=r2 > 0.0)
        out[lo:hi] = r2 @ charges
    return out


def ref_gradient(targets, sources, charges, softening=0.0):
    """Exact gradient of :func:`ref_potential` at each target."""
    out = np.empty((targets.shape[0], 3))
    eps2 = softening * softening
    for lo, hi in _tiles(targets.shape[0], sources.shape[0]):
        t = targets[lo:hi]
        d = [np.subtract.outer(t[:, ax], sources[:, ax]) for ax in range(3)]
        r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + eps2
        w = np.zeros_like(r2)
        np.divide(1.0, r2 * np.sqrt(r2), out=w, where=r2 > 0.0)
        w *= charges
        for ax in range(3):
            out[lo:hi, ax] = -np.einsum("ts,ts->t", w, d[ax])
    return out


def median_seconds(fn, reps: int = 3) -> float:
    """Median wall time of ``reps`` calls of ``fn``."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def dgemm_gflops(n: int = 2048, reps: int = 3) -> float:
    """Achieved GFLOP/s of one ``n x n`` float64 matrix product."""
    rng = np.random.default_rng(0)
    a, b = rng.random((n, n)), rng.random((n, n))
    c = np.empty((n, n))
    np.matmul(a, b, out=c)  # warm the BLAS threads
    return 2.0 * n**3 / median_seconds(lambda: np.matmul(a, b, out=c), reps) / 1e9


def p2p_ref_mpairs_per_s(n_targets: int = 1024, n_sources: int = 4096, reps: int = 3) -> float:
    """Pair rate of :func:`ref_potential` on a fixed random tile."""
    rng = np.random.default_rng(0)
    t, s, q = rng.random((n_targets, 3)), rng.random((n_sources, 3)), rng.random(n_sources)
    ref_potential(t, s, q)
    secs = median_seconds(lambda: ref_potential(t, s, q), reps)
    return n_targets * n_sources / secs / 1e6


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def _git_sha(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git;
    ``unknown`` when the checkout is not a git repository."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(root: Path) -> dict:
    """CPU model, cores, BLAS, NumPy and git sha of this run."""
    return {
        "cpu": _cpu_model(),
        "cores": os.cpu_count(),
        "blas": _blas(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": _git_sha(root),
    }


def ceilings() -> dict:
    """The two measured host ceilings (measured after the workload, so
    their buffers never count toward the workload's peak memory)."""
    return {
        "host.dgemm_gflops": dgemm_gflops(),
        "host.p2p_ref_mpairs_per_s": p2p_ref_mpairs_per_s(),
    }
