"""Exception types shared across the package: one class per remedy."""


class LambdasetError(Exception):
    """Base class for all library errors."""


class InvalidInput(LambdasetError, ValueError):
    """An argument lies outside the operation's domain (a target outside
    (0, 1/2), a nonpositive count, a malformed sequence or defining
    sequence, ...): fix the argument."""


class DepthBudgetExceeded(LambdasetError):
    """Adaptive refinement hit the depth cap before meeting the size rule,
    or a cover, tail construction, expansion or piece index would exceed
    the enumeration budget: ask for less."""


class Inconclusive(LambdasetError):
    """Solved cells are too wide to separate neighbouring endpoints or to
    decide a ledger entry; the message names the piece, gap or entry and
    the target width, and a narrower target width may settle it."""


class HypothesisUnsatisfiable(LambdasetError):
    """No index, no sampled word or too few sampled member pairs have the
    shape a computation needs: another target, seed or sample size may
    work."""
