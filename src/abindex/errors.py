"""The refusals the engine raises, one type per way the CLI ends a run."""


class InvalidInput(ValueError):
    """An argument lies outside the domain of the requested construction,
    or data breaks a check's hypotheses; the CLI exits 2."""


class CapExceeded(Exception):
    """A size guard refused something too large, such as a table over the
    memory bound; the CLI exits 3."""


class SearchTimeout(Exception):
    """A search exceeded its time budget; carries the best bound seen so far.
    The CLI exits 3."""

    def __init__(self, message: str, best_order_found: int = 0):
        super().__init__(message)
        self.best_order_found = best_order_found
