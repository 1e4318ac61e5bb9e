"""Exception types shared by every module in the package, and the one
up-front check of a documented cost bound."""


class DomainError(ValueError):
    """A query violates a documented hypothesis (bad input, off-shell data)."""


class IntegralityError(ArithmeticError):
    """An exact rational that is guaranteed to be an integer failed to be one.

    Raised only on internal bugs (a mistranscribed formula, a broken
    recursion); never on bad user input.
    """


class CrossCheckError(RuntimeError):
    """Two independent evaluations of the same quantity disagreed."""


def require_within(what: str, quantity: str, value: int, bound: int, scope: str) -> None:
    """Refuse a ``value`` above its documented ``bound`` before any work,
    naming the bound; the message is formatted only on refusal."""
    if value > bound:
        raise DomainError(f"{what}: {quantity} {value} exceeds the bound {bound} on {scope}")
