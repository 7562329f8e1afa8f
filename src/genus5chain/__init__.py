"""Exact solution toolkit for a three-state vertex model on a genus-five curve.

Subpackages cover the spectral curve and its elliptic image (`curve`), the
R-matrix and Yang-Baxter checks (`rmatrix`), exact diagonalization of the
related non-Hermitian spin-1 chain (`lattice`), Bethe-equation solvers and
transfer-matrix eigenvalues (`bethe`), thermodynamic-limit densities and
the mass gap (`thermo`), the algebraic eigenvector construction (`aba`),
the published benchmark tables with their deviations (`tables`), and a
command-line interface that prints them (`cli`, console script `genus5`).
"""

from .curve import CurveParams, CurvePoint, critical_couplings
from .bethe import BetheRootSet

__all__ = ["CurveParams", "CurvePoint", "BetheRootSet", "critical_couplings"]
__version__ = "0.1.0"
