"""The paper's fourteen terminating grid exploration algorithms.

Each ``algNN_*`` module encodes one algorithm of Section 4 as an executable
rule set plus its initial configuration, anchored at the northwest corner
exactly as in the paper (``v_{0,0}``, ``v_{0,1}``, ...);
:mod:`repro.algorithms.registry` exposes them by name and by Table 1
coordinates; :mod:`repro.algorithms.derive` implements the paper's
"replace one color by a stack of two robots" construction used for the
single-color variants (Sections 4.2.3, 4.2.4 and 4.2.8).
"""

from .registry import all_algorithms, find, get, names, table1_rows

__all__ = ["all_algorithms", "find", "get", "names", "table1_rows"]
