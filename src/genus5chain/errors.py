"""Exception types shared across the package."""


class Genus5Error(Exception):
    """Base class for all package errors."""


class MapSingular(Genus5Error):
    """Point maps to infinity under the (Z, W) coordinates (x = 0 or y = 0)."""


class WrongCoupling(Genus5Error):
    """Operation requires the degeneration coupling U = 2*sqrt(3)."""


class WeightSingular(Genus5Error):
    """A Boltzmann-weight denominator vanished; carries the denominator name."""


class PhaseShiftSingular(Genus5Error):
    """The phase shift is undefined because a*f vanishes for the pair."""


class PoleHit(Genus5Error):
    """A denominator in a Bethe-equation or eigenvalue product vanished."""


class NoConvergence(Genus5Error):
    """A solver stopped short; `last`, `residual` and `diagnostics` hold what it carried."""

    def __init__(self, message, last=None, residual=None, diagnostics=None):
        super().__init__(message)
        self.last = last
        self.residual = residual
        self.diagnostics = diagnostics or {}


class NonRealDrift(NoConvergence):
    """Real-root Newton left the stable regime (roots collided or kernel flipped)."""


class JacobianSingular(NoConvergence):
    """Newton Jacobian is numerically singular."""


class BracketInvalid(Genus5Error):
    """Bisection bracket does not contain a sign change of the predicate."""


class KernelSingular(Genus5Error):
    """Integral-equation kernel denominator vanishes on the quadrature grid."""


class ZeroVector(Genus5Error):
    """A state vector with vanishing norm was produced."""


class DegenerateRoots(Genus5Error):
    """Two rapidity points coincide where distinct points are required."""


class InsufficientData(Genus5Error):
    """Not enough data points for the requested fit."""
