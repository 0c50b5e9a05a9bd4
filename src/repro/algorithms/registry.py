"""Registry of the paper's fourteen terminating-exploration algorithms.

Algorithms are looked up either by module name (e.g.
``"fsync_phi2_l2_chir_k2"``) or by their Table 1 coordinates through
:func:`find` (synchrony, phi, number of colors, chirality).

The registry discovers every ``alg*`` module of :mod:`repro.algorithms`
automatically, so adding an algorithm module is all that is needed to make
it available to the benchmarks, the verification campaigns and the Table 1
builder.
"""

from __future__ import annotations

import importlib
import pkgutil
from typing import Dict, List, Optional

from ..core.algorithm import Algorithm
from ..core.errors import AlgorithmError

__all__ = ["all_algorithms", "get", "find", "names", "table1_rows"]

_CACHE: Optional[Dict[str, Algorithm]] = None


def _discover() -> Dict[str, Algorithm]:
    """Import every ``alg*`` module of the package and collect its ``ALGORITHM``."""
    from .. import algorithms as package

    found: Dict[str, Algorithm] = {}
    for module_info in pkgutil.iter_modules(package.__path__):
        if not module_info.name.startswith("alg"):
            continue
        module = importlib.import_module(f"{package.__name__}.{module_info.name}")
        algorithm = getattr(module, "ALGORITHM", None)
        if algorithm is None:
            raise AlgorithmError(
                f"algorithm module {module_info.name} does not define ALGORITHM"
            )
        if algorithm.name in found:
            raise AlgorithmError(f"duplicate algorithm name {algorithm.name!r}")
        found[algorithm.name] = algorithm
    return found


def all_algorithms() -> Dict[str, Algorithm]:
    """All registered algorithms, keyed by name."""
    global _CACHE
    if _CACHE is None:
        _CACHE = _discover()
    return dict(_CACHE)


def names() -> List[str]:
    """Sorted names of all registered algorithms."""
    return sorted(all_algorithms())


def get(name: str) -> Algorithm:
    """Look an algorithm up by name."""
    algorithms = all_algorithms()
    try:
        return algorithms[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {', '.join(sorted(algorithms))}"
        ) from exc


def find(synchrony: str, phi: int, ell: int, chirality: bool) -> Algorithm:
    """Look an algorithm up by its Table 1 coordinates.

    ``synchrony`` is ``"FSYNC"`` or ``"ASYNC"`` (the paper's SSYNC/ASYNC
    rows are served by the same ASYNC algorithms).
    """
    matches = [
        algorithm
        for algorithm in all_algorithms().values()
        if algorithm.synchrony == synchrony
        and algorithm.phi == phi
        and algorithm.ell == ell
        and algorithm.chirality == chirality
    ]
    if not matches:
        raise KeyError(
            f"no algorithm registered for synchrony={synchrony}, phi={phi},"
            f" ell={ell}, chirality={chirality}"
        )
    if len(matches) > 1:
        raise AlgorithmError(
            f"multiple algorithms registered for synchrony={synchrony}, phi={phi},"
            f" ell={ell}, chirality={chirality}"
        )
    return matches[0]


def table1_rows() -> List[Algorithm]:
    """All algorithms ordered as the rows of the paper's Table 1."""
    order = [
        ("FSYNC", 2, 2, True),
        ("FSYNC", 2, 2, False),
        ("FSYNC", 2, 1, True),
        ("FSYNC", 2, 1, False),
        ("FSYNC", 1, 3, True),
        ("FSYNC", 1, 3, False),
        ("FSYNC", 1, 2, True),
        ("FSYNC", 1, 2, False),
        ("ASYNC", 2, 3, True),
        ("ASYNC", 2, 3, False),
        ("ASYNC", 2, 2, True),
        ("ASYNC", 2, 2, False),
        ("ASYNC", 1, 3, True),
        ("ASYNC", 1, 3, False),
    ]
    rows = []
    for synchrony, phi, ell, chirality in order:
        try:
            rows.append(find(synchrony, phi, ell, chirality))
        except KeyError:
            continue
    return rows
