"""Certified equipartitions of a mass distribution into boxes.

Subpackages: exact GF(2) polynomial arithmetic (gf2poly), Dickson
polynomial constructions (dickson), the algebraic certificate and
dimension tables (certifier), the group-action cross-check (repdecomp),
mass distributions and box tensors (measures), and the numerical
equipartition search (solver). The `equibox` CLI wires them together.
"""

__version__ = "0.1.0"
SCHEMA = "equibox/1"  # the tag of every JSON report and measure file
