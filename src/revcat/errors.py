"""Shared exception types."""


class RevcatError(Exception):
    pass


class DimensionMismatch(RevcatError):
    pass


class DomainMismatch(RevcatError):
    pass


class NonConvergence(RevcatError):
    def __init__(self, message, iterations=0, last=None):
        super().__init__(message)
        self.iterations = iterations
        self.last = last


class InvalidArgument(RevcatError, ValueError):
    """A value an operation does not accept, such as a negative object size
    or a fixed-point policy that allows no iteration."""


class IncompatibleJoin(RevcatError):
    pass


class UnsupportedOperation(RevcatError):
    pass


class TooLarge(RevcatError):
    pass


class ParseError(RevcatError):
    def __init__(self, message, line=None, col=None):
        loc = "" if line is None else f" at {line}:{col}"
        super().__init__(message + loc)
        self.line = line
        self.col = col


class UnknownFunction(RevcatError):
    pass


class UnboundParameter(RevcatError):
    pass
