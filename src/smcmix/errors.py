"""Exception types shared across the package."""

import copyreg


class SmcmixError(Exception):
    """Base class for every error raised by this package.

    An error is unpickled from its message and fields, not through
    ``__init__``, whose arguments the subclasses below format into one
    message: a round trip, as through a process pipe, keeps the type, the
    message and every field.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class InvalidModelError(SmcmixError, ValueError):
    """A structural invariant of a domain type is violated."""


class DataError(SmcmixError, ValueError):
    """Input data cannot be turned into a valid panel, model or scenario."""


class MalformedRow(DataError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NonMonotoneOnset(DataError):
    def __init__(self, subject: str, replication: int):
        super().__init__(
            f"onsets not strictly increasing for subject {subject!r}"
            f" replication {replication}"
        )
        self.subject = subject
        self.replication = replication


class UnknownAttribute(DataError):
    def __init__(self, attribute: str, line: int):
        super().__init__(
            f"line {line}: attribute {attribute!r} not in the supplied label list"
        )
        self.attribute = attribute
        self.line = line


class NumericalError(SmcmixError):
    """Estimation failed for numerical reasons."""


class DegenerateSample(NumericalError):
    """Weighted sample carries too little information for a gamma fit."""


class NonConvergence(NumericalError):
    """An iterative search exhausted its bracket or iteration budget."""


class AllComponentsImpossible(NumericalError):
    def __init__(self, subject: int):
        super().__init__(
            f"subject {subject} has zero likelihood under every mixture component"
        )
        self.subject = subject


class EmptyComponent(NumericalError):
    def __init__(self, component: int, report=None):
        super().__init__(f"mixture component {component} lost all its subjects")
        self.component = component
        self.report = report
