"""Exception hierarchy shared by all pnoise modules."""


class PnoiseError(Exception):
    """Base class for all library errors."""


class Infeasible(PnoiseError):
    """A linear system has no solution."""


class DependentBasis(PnoiseError):
    """Columns passed as a basis are linearly dependent."""


class ValidationError(PnoiseError):
    """A grid module fails a structural check."""


class ShapeMismatch(ValidationError):
    def __init__(self, point, axis, detail=""):
        self.point, self.axis = point, axis
        super().__init__(f"edge map at {point} axis {axis} has wrong shape {detail}")


class NonCommutingSquare(ValidationError):
    def __init__(self, point, i, j):
        self.point, self.i, self.j = point, i, j
        super().__init__(f"square at {point} for axes ({i},{j}) does not commute")


class NotComparable(PnoiseError):
    """Points are not related by the componentwise partial order."""


class IncompatibleShape(PnoiseError):
    """Binary operation on modules with different (r, alpha, box, p)."""


class OutOfBox(PnoiseError):
    """A lattice point lies outside the module's box."""


class NonNatural(PnoiseError):
    """A collection of matrices fails the naturality squares."""


class NotClosed(PnoiseError):
    """A submodule basis is not closed under the parent's edge maps."""


class NotOneDimensional(PnoiseError):
    """Operation requires r == 1."""


class NotClosedUnderSums(PnoiseError):
    """Noise component is not (certified) closed under direct sums."""


class SearchSpaceTooLarge(PnoiseError):
    """Exhaustive submodule search would take more steps at one point than
    its cap allows; raised before the step past the cap is listed."""


class UnsupportedNoise(PnoiseError):
    """Noise specification not supported by the requested operation."""


class ParseError(PnoiseError):
    def __init__(self, line, reason):
        self.line, self.reason = line, reason
        super().__init__(f"line {line}: {reason}")


class EmptyGrid(PnoiseError):
    """Bifiltration input with an empty threshold grid."""
