"""Exception types shared across the package."""


class MatroidError(Exception):
    """Base class for all package errors."""


class GroundSetError(MatroidError):
    """A ground set size that is not a non-negative integer, or an element
    id outside the ground set. A ground set over the size cap raises
    ResourceLimitError instead."""


class DomainError(MatroidError):
    """Arguments outside an operation's documented domain."""


class PreconditionError(MatroidError):
    """A checked mathematical precondition failed (e.g. not a flat)."""


class ResourceLimitError(MatroidError):
    """A search exceeded its element/subset cap.

    Raised instead of returning a wrong or partial answer; callers can
    distinguish "no" from "gave up".
    """


class FormatError(MatroidError):
    """Exchange document malformed. Carries a best-effort location."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{message} (at {location})" if location else message)
        self.location = location


class SerializationError(MatroidError):
    """Matroid has no serializable representation or recipe."""


class ReductionDidNotClose(MatroidError):
    """The structured reduction ran out of branches at this scale.

    A legal outcome for small instances; carries the transcript so the
    attempt can be replayed.
    """

    def __init__(self, message: str, transcript=None):
        super().__init__(message)
        self.transcript = transcript or []
