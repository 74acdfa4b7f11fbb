"""Smoothed-analysis machinery for dynamic graph problems.

Subpackages:

* :mod:`smoothdyn.graph` -- mutable simple graphs with O(1) flip/membership
* :mod:`smoothdyn.smoothing` -- p-smoothed change sequences and the three
  adversary models
* :mod:`smoothdyn.counters` -- incremental s-t path / triangle / 4-cycle
  counters and the constant-time deciders
* :mod:`smoothdyn.adversaries` -- adaptive and oblivious edge-embedding
  strategies
* :mod:`smoothdyn.reduction` -- Poisson machinery and the parity-OuMv
  reduction pipeline
* :mod:`smoothdyn.oracles` -- brute-force ground truth
* :mod:`smoothdyn.harness` / :mod:`smoothdyn.cli` -- experiment harness
"""

__version__ = "0.1.0"
