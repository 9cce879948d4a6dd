"""Exception types shared across the package."""


class MargNetError(Exception):
    """Base class for all library errors."""


class MissingColumn(MargNetError):
    def __init__(self, name):
        super().__init__(f"required column {name!r} not found in CSV header")
        self.name = name


class ParseError(MargNetError):
    def __init__(self, row, column, value):
        super().__init__(f"cannot parse {value!r} as a finite number (row {row}, column {column!r})")
        self.row = row
        self.column = column


class DegenerateRange(MargNetError):
    pass


class UnknownCategory(MargNetError):
    def __init__(self, attr, value):
        super().__init__(f"value {value!r} not in the declared categories of attribute {attr!r}")
        self.attr = attr
        self.value = value


class NotPositiveDefinite(MargNetError):
    pass


class SpecOutOfRange(MargNetError):
    pass


class SpecMismatch(MargNetError):
    pass


class ZeroMass(MargNetError):
    pass


class TooFewAttributes(MargNetError):
    pass


class InsufficientBudget(MargNetError):
    pass


class EmptyCandidates(MargNetError):
    pass


class UnsupportedOrder(MargNetError):
    pass


class InvalidDelta(MargNetError):
    pass


class NoRounds(MargNetError):
    pass


class DomainMismatch(MargNetError):
    pass


class CheckpointError(MargNetError):
    pass
