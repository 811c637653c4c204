"""Exception types shared across the package."""


class LambdasetError(Exception):
    """Base class for all library errors."""


class Inconclusive(LambdasetError):
    """Solved cells of neighbouring endpoints are not separated; the
    message names the piece or gap and the target width they were solved
    at, and a narrower target width may separate them."""


class PeriodAllOnes(LambdasetError):
    """Sequence ends in an all-ones tail, so it has finitely many zeros."""


class OutOfRange(LambdasetError):
    """Argument outside the operation's domain."""


class NotAdmissible(LambdasetError):
    """Coding lies outside the admissible window for the given target."""


class MalformedSequence(LambdasetError):
    """A removed interval is not strictly interior to its component."""


class NonpositiveThickness(LambdasetError):
    """Thickness must be strictly positive."""


class InsufficientMembers(LambdasetError):
    """Sampling found fewer certified distinct member pairs than asked for."""


class DepthBudgetExceeded(LambdasetError):
    """Adaptive refinement hit the depth cap before meeting the size rule,
    or a cover, tail construction, expansion or piece index would exceed
    the enumeration budget."""


class HypothesisUnsatisfiable(LambdasetError):
    """No index, or no sampled word, has the shape a verification needs."""


class InvalidInput(LambdasetError):
    """Structurally invalid input (empty target list, bad window, ...)."""
