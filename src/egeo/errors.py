"""Exception types and the default rank tolerance shared across the toolkit.

Every domain error is a ValueError subclass so callers that do not care
about the fine-grained type can catch the usual thing.  This module imports
nothing, so the CLI parser can read the default tolerance without numpy.
"""

DEFAULT_RANK_TOL = 1e-9


class EgeoError(ValueError):
    """Base class for all domain errors raised by this package."""


class ZeroState(EgeoError):
    """All coefficients of a would-be state vanish."""


class NonFinite(EgeoError):
    """An input number is infinite or NaN."""


class ShapeMismatch(EgeoError):
    """Dimensions of the supplied objects do not line up."""


class WrongShape(EgeoError):
    """Operation requires a specific subsystem shape (e.g. two qubits)."""


class NotSquare(EgeoError):
    """A square matrix was required."""


class TooLarge(EgeoError):
    """Input exceeds the desk-scale cap of an exhaustive routine."""


class OutOfRange(EgeoError):
    """A numeric parameter lies outside its admissible range."""


class BadWord(EgeoError):
    """Loop word contains an unknown letter or is empty."""


class NotCentral(EgeoError):
    """A commutator expected to be scalar is not."""


class BadNerve(EgeoError):
    """Cover nerve violates downward closure or pair consistency."""


class NotPGLCocycle(EgeoError):
    """A triple product of transition lifts is not scalar."""


class NotRootOfUnity(EgeoError):
    """A triple-overlap scalar is not close to any m-th root of unity."""


class NotCocycle(EgeoError):
    """A 2-cochain failed the cocycle identity."""


class WrongLength(EgeoError):
    """A sequence argument has the wrong length."""


class WrongSize(EgeoError):
    """A spectral class has the wrong number of eigenvalues."""
