"""Exception hierarchy shared by all thetaval modules."""


class ThetavalError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ThetavalError):
    """Input outside the mathematical domain of an operation."""


class Undecided(ThetavalError):
    """An enclosure too wide to decide a step; more bits may decide it."""


class DivisorStraddlesZero(DomainError, Undecided):
    """Division by a ball whose enclosure contains zero."""


class EnclosureReachesBoundary(DomainError, Undecided):
    """A ball reaching a domain's edge only by its radius: more bits may decide it."""


class PowerTooLarge(DomainError):
    """An integer power or folded constant beyond the size limit of its precision."""


class UnsupportedGammaArgument(DomainError):
    """`gamma_rational` at an argument outside (0, 2]."""


class NotConvergent(DomainError):
    """A q-series or q-product was asked to converge with |q| >= 1, or would
    need more terms than its limit: the input lies outside what it sums."""


class FactorNearZero(ThetavalError):
    """A q-Pochhammer factor could not be bounded away from zero."""


class PreconditionViolated(DomainError):
    """A stated arithmetic precondition (e.g. ab = cd) does not hold."""


class EvaluationError(ThetavalError):
    """Failure while evaluating a catalog entry; carries the entry id."""

    def __init__(self, entry_id: str, message: str):
        super().__init__(f"{entry_id}: {message}")
        self.entry_id = entry_id
        self.message = message

    def __reduce__(self):  # rebuilt from both fields, so it crosses a process pool
        return type(self), (self.entry_id, self.message)


class NoRootMatches(ThetavalError):
    """Neither quadratic root overlaps the series oracle."""


class BothRootsMatch(Undecided):
    """Both quadratic roots overlap the oracle; enclosures too wide."""


class RootsNotSeparable(Undecided):
    """Certified root enclosures of the cubic could not be separated."""


class ComplexRootsDetected(ThetavalError):
    """The cubic does not have three real roots."""


class NoPermutationMatches(ThetavalError):
    """No ordering of the cubic roots reproduces (u, v, w)."""


class MultiplePermutationsMatch(Undecided):
    """Several root orderings reproduce (u, v, w); enclosures too wide."""


class ParseError(ThetavalError):
    """Expression-grammar parse failure, with source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos

    def __reduce__(self):
        return type(self), (self.message, self.pos)
