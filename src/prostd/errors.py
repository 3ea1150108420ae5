"""Exception types shared across the package.

Everything subclasses ValueError so callers that do not care about the
fine distinction can catch one thing; the CLI maps these to exit code 1
and genuine usage problems to exit code 2.
"""

from contextlib import contextmanager


class RingMismatchError(ValueError):
    """Operands belong to different coefficient rings."""


class MaximalIdealError(ValueError):
    """A value that must lie in (a power of) the maximal ideal does not."""


class ShapeError(ValueError):
    """Series or tuple shapes are incompatible."""


@contextmanager
def _json_shape(what: str):
    """Re-raise the errors that well-formed JSON of the wrong shape causes
    while it is converted (a missing key, a list for an object, a number for
    a string) as ShapeError naming the kind of file."""
    try:
        yield
    except KeyError as e:
        raise ShapeError(f"{what} JSON lacks the key {e}") from e
    except (TypeError, AttributeError, IndexError) as e:
        raise ShapeError(f"{what} JSON has the wrong shape: {e}") from e


class SubstitutionError(ValueError):
    """Composition argument has a nonzero constant term."""


class EnumerationBoundError(ValueError):
    """An enumeration would exceed the configured size bound."""

    def __init__(self, size, bound):
        super().__init__(f"enumeration size {size} exceeds bound {bound}")
        self.size = size
        self.bound = bound


class WordSyntaxError(ValueError):
    """Word text failed to parse."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExactnessError(ValueError):
    """Exact (untruncated) data is required for this operation: coefficients,
    or a law whose truncation is invisible at the requested level."""


class LawError(ValueError):
    """A series tuple fails the formal-group-law axioms."""


class ExtensionDataError(ValueError):
    """Transversal-extension data is inconsistent."""
