"""Conformally Kahler quasi-Einstein metrics: construction and verification.

Builds, in explicit coordinates, Kahler metrics on complex line bundles
whose conformal rescalings satisfy a quasi-Einstein equation, and checks
every claimed identity either exactly (rational-function algebra) or
numerically (second-order automatic differentiation of curvature).

The package exposes its modules (``kahlerqe.cli``, ``kahlerqe.builder``,
...) and re-exports nothing, so importing it loads no submodule.
"""

__version__ = "0.1.0"
