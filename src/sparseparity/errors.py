"""Exception types shared across the package."""


class LengthMismatchError(ValueError):
    """Two bit vectors of different lengths were combined."""


class NotSingletonError(Exception):
    """Raised by :func:`~sparseparity.pac.extract_hypothesis` when the learner
    has no candidate hypothesis left."""


class BudgetExceededError(Exception):
    """An exhaustive enumeration would exceed its configured budget."""


class InconsistentStreamError(Exception):
    """The labeled stream admits no hypothesis the learner tracks."""


class AllChartsEmptyError(InconsistentStreamError):
    """Every subspace chart died: labels are noisy or the target is not a
    sparse parity."""


class BudgetExhaustedError(Exception):
    """The sample budget ran out before a hypothesis could be certified.

    Carries ``samples_used``, the examples drawn before it ran out.
    """

    def __init__(self, samples_used: int):
        super().__init__(
            f"sample budget exhausted after {samples_used} examples"
        )
        self.samples_used = samples_used


class NoCandidatesError(Exception):
    """Every flip set led the inner learner to fail: the noise rate is too
    high for the flip budget, or the inner learner violates its contract."""
