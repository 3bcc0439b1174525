"""Exception types shared across the package."""


class PoplabError(Exception):
    """Base class for all poplab errors."""


class BadId(PoplabError):
    """An agent id is outside 0..n-1."""


class NotSimple(PoplabError):
    """Edge list contains a self-loop or a duplicate edge."""


class NotConnected(PoplabError):
    """The graph is not connected."""


class Infeasible(PoplabError):
    """No simple connected graph exists for the requested (n, m)."""

    def __init__(self, n, m, reason=""):
        self.n = n
        self.m = m
        super().__init__(f"infeasible graph request n={n}, m={m}" + (f": {reason}" if reason else ""))


class NotAnEdge(PoplabError):
    """The requested interaction pair is not a directed edge of the graph."""


class DomainViolation(PoplabError):
    """A protocol state field is outside its declared domain."""


class MissingKnowledge(PoplabError):
    """The protocol needs exact knowledge (e.g. the pair count m) that params do not carry."""


class Singular(PoplabError):
    """A chain linear system could not be solved (should not happen on connected graphs)."""


class BadCounts(PoplabError):
    """Game counts must be non-negative and sum to the number of players."""


class TooLarge(PoplabError):
    """The requested enumeration exceeds the configured budget, or what int64 keys can index."""

    def __init__(self, size, budget, reason=None):
        self.size = size
        self.budget = budget
        super().__init__(f"state space of {size} configurations {reason or f'exceeds budget {budget}'}")


class NoSafeConfigOnSuper(PoplabError):
    """The protocol has no final, spec-correct configuration on the larger graph."""
