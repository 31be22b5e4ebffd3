"""Exception types shared across the library."""


class EpsContactError(Exception):
    """Base class for all library errors."""


class ConstraintViolation(EpsContactError):
    """A family parameter constraint fails."""


class JacobiViolation(EpsContactError):
    """Bracket coefficients do not satisfy the Jacobi identity."""


class NotContact(EpsContactError):
    """The contact condition fails; carries the failed condition and residual."""

    def __init__(self, condition: str, residual: float):
        super().__init__(f"not a contact structure: {condition} (residual {residual:.3e})")
        self.condition = condition
        self.residual = residual


class DecompositionFailure(EpsContactError):
    """A structurally guaranteed tensor decomposition failed (implementation bug)."""


class WrongCausalType(EpsContactError):
    """Operation requires a different causal type of the Reeb field."""


class NotEtaEinstein(EpsContactError):
    def __init__(self, residual: float):
        super().__init__(f"Ricci does not fit the eta-Einstein form (residual {residual:.3e})")
        self.residual = residual


class Inadmissible(EpsContactError):
    """Fit succeeded but violates the sign constraints on (lambda^2, kappa)."""


class EigenFailure(EpsContactError):
    """Eigenstructure inconsistent with the expected spectrum."""


class IncompatibleFactors(EpsContactError):
    """Product factors violate a compatibility relation."""


class SingularMetric(EpsContactError):
    """Surface metric not positive definite at some node."""


class DegenerateParameters(EpsContactError):
    """Closed-form example parameters are degenerate."""
