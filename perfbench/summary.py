"""Percentiles, medians and the environment record attached to every result."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path
from typing import Dict, Optional, Sequence

#: Percentiles the tail helper may report, highest last.
LADDER = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (``q`` in [0, 1])."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def tail(values: Sequence[float], min_beyond: int = 10) -> Dict[str, Optional[float]]:
    """Median plus the highest ladder percentile with ``min_beyond`` samples beyond it.

    ``q`` and ``tail`` are ``None`` when even the median has fewer than
    ``min_beyond`` samples above it.
    """
    n = len(values)
    best = None
    for q in LADDER:
        if n * (1 - q) >= min_beyond - 1e-9:  # 100 * (1 - 0.9) is 9.999...
            best = q
    return {
        "n": n,
        "p50": median(values) if values else None,
        "q": best,
        "tail": quantile(values, best) if best is not None else None,
    }


def _git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def source_digest(root: Path) -> str:
    """sha256 over the library sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path) -> Dict[str, object]:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }
