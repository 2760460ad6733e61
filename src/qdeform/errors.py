"""Exception hierarchy.

``QDeformError`` is the root. ``MathError`` covers failures of the
mathematics (singular operators, degree overflow, degenerate spectra);
``DslError`` covers failures of the surface syntax. The CLI maps the two
branches to distinct exit codes.
"""


class QDeformError(Exception):
    pass


class MathError(QDeformError):
    """A mathematically meaningful failure (not a usage error)."""


class BasisMismatchError(MathError):
    """Binary polynomial operation across incompatible bases."""


class UnsupportedBasisOperationError(MathError):
    """Operation not defined in the polynomial's basis (e.g. falling-basis multiply)."""


class DegreeOverflowError(MathError):
    """Result would exceed the working truncation degree."""


class SingularOperatorError(MathError):
    """Inverse of a diagonal operator hit a zero eigenvalue on an occupied degree."""


class NonterminatingExponentialError(MathError):
    """Operator exponential whose series does not terminate on polynomials."""


class UnsupportedStarError(MathError):
    """The *-involution is undefined on this node."""


class MapConstructionError(MathError):
    """A deformation map failed its construction-time invariant checks."""


class UnsupportedCompositionError(MathError):
    """Generator substitution produced a node that cannot be evaluated."""


class EmptyWindowError(MathError):
    """No truncation degree survives the band-safety restriction."""


class SpectrumMismatchError(MathError):
    """A realized diagonal disagrees with the closed-form spectrum."""


class DegenerateSpectrumError(MathError):
    """Two eigenvalues collide; carries the colliding indices."""

    def __init__(self, indices, message=None):
        self.indices = tuple(indices)
        if message is None:
            message = "degenerate eigenvalues at indices %s" % (self.indices,)
        super().__init__(message)


class DslError(QDeformError):
    """Surface-syntax error, located at line:col."""

    def __init__(self, message, line=1, col=1):
        self.line = line
        self.col = col
        super().__init__("%d:%d: %s" % (line, col, message))


class ParseError(DslError):
    pass


class SemanticError(DslError):
    pass
