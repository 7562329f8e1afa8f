"""Exception types of the package: a refused precondition raises a plain
`ValueError` (exit 2 on the command line), a numerical failure a
`Genus5Error` (exit 1)."""


class Genus5Error(Exception):
    """Base class for all numerical failures."""


class NoConvergence(Genus5Error):
    """A solver stopped short; `last`, `residual` and `diagnostics` hold what it carried."""

    def __init__(self, message, last=None, residual=None, diagnostics=None):
        super().__init__(message)
        self.last = last
        self.residual = residual
        self.diagnostics = diagnostics or {}


class Singular(Genus5Error):
    """A denominator, kernel or norm vanished; the message names the quantity."""
