"""Exception types shared across the package."""


class LambdasetError(Exception):
    """Base class for all library errors."""


class Inconclusive(LambdasetError):
    """Enclosure arithmetic too coarse to decide; raise precision_bits."""


class PeriodAllOnes(LambdasetError):
    """Sequence ends in an all-ones tail, so it has finitely many zeros."""


class OutOfRange(LambdasetError):
    """Argument outside the operation's domain."""


class NotAdmissible(LambdasetError):
    """Coding lies outside the admissible window for the given target."""


class NeedsLargerTruncation(LambdasetError):
    """Series tail bound prevents certifying the required sign."""


class MalformedSequence(LambdasetError):
    """A removed interval is not strictly interior to its component."""


class NonpositiveThickness(LambdasetError):
    """Thickness must be strictly positive."""


class InsufficientMembers(LambdasetError):
    """Fewer than two distinct members found by sampling."""


class DepthBudgetExceeded(LambdasetError):
    """Adaptive refinement hit the depth cap before meeting the size rule,
    or a cover would need more prefixes than the enumeration budget."""


class HypothesisUnsatisfiable(LambdasetError):
    """No index satisfies the shape required by the verification case."""


class InvalidInput(LambdasetError):
    """Structurally invalid input (empty target list, bad window, ...)."""


class NoneFound(LambdasetError):
    """Search exhausted its budget without producing any result."""
