"""repro — Terminating Grid Exploration with Myopic Luminous Robots.

A faithful, executable reproduction of

    S. Nagahama, F. Ooshita, M. Inoue,
    "Terminating Grid Exploration with Myopic Luminous Robots",
    IPPS 2021 (arXiv:2102.06006).

The library provides

* the Look-Compute-Move grid simulation substrate (``repro.core``) for the
  FSYNC, SSYNC and ASYNC synchrony models, with myopic luminous robots and
  the rotation/reflection view semantics of the paper;
* the execution engine (``repro.engine``): the transition-system kernel
  the model checker explores (with grid-symmetry reduction), the
  single-path walk the simulator runs (a second implementation of the same
  semantics, kept equal to the kernel by a differential test) and the
  parallel campaign engine — see ``docs/architecture.md``;
* executable encodings of the paper's fourteen terminating-exploration
  algorithms (``repro.algorithms``);
* verification utilities (``repro.verification``) and an exhaustive model
  checker (``repro.checking``) establishing terminating exploration over
  all scheduler behaviours on small grids;
* the impossibility machinery of Theorem 1 (``repro.impossibility``);
* analysis and visualisation helpers (``repro.analysis``, ``repro.viz``)
  used to regenerate Table 1 and the paper's figures.

Quickstart
----------
>>> from repro import algorithms, core
>>> algorithm = algorithms.get("fsync_phi2_l2_chir_k2")
>>> result = core.run_fsync(algorithm, core.Grid(5, 6))
>>> result.is_terminating_exploration
True
"""

from __future__ import annotations

from . import core, engine

__version__ = "1.1.0"

#: The paper reproduced by this library.
PAPER_REFERENCE = (
    "S. Nagahama, F. Ooshita, M. Inoue. "
    "Terminating Grid Exploration with Myopic Luminous Robots. "
    "IPPS 2021. arXiv:2102.06006."
)

__all__ = ["core", "engine", "PAPER_REFERENCE", "__version__"]
