"""Exception types shared across the package."""


class LinkGraphError(Exception):
    """Base class for all package errors."""


class LoopRejected(LinkGraphError):
    def __init__(self, line=None, detail=""):
        self.line = line
        msg = detail or "loops are not allowed"
        if line is not None:
            msg = f"line {line}: {msg}"
        super().__init__(msg)


class MalformedLine(LinkGraphError):
    def __init__(self, line, detail=""):
        self.line = line
        super().__init__(f"line {line}: {detail or 'malformed line'}")


class InvalidParameter(LinkGraphError):
    pass


class UnknownVertex(LinkGraphError):
    pass


class UnknownEdge(LinkGraphError):
    pass


class LimitExceeded(LinkGraphError):
    def __init__(self, count, limit):
        self.count = count
        self.limit = limit
        super().__init__(f"enumeration passed the configured limit ({count} > {limit})")


class EndpointMismatch(LinkGraphError):
    pass


class BacktrackEdge(LinkGraphError):
    pass


class WindowTooLong(LinkGraphError):
    pass


class WindowTooShort(LinkGraphError):
    pass


class LengthMismatch(LinkGraphError):
    pass


class NotALink(LinkGraphError):
    pass


class PartitionMismatch(LinkGraphError):
    pass


class PartialColoring(LinkGraphError):
    pass


class PreconditionViolated(LinkGraphError):
    pass


class OracleTooLarge(LinkGraphError):
    def __init__(self, size, cap):
        self.size = size
        self.cap = cap
        super().__init__(f"instance of size {size} exceeds the oracle cap {cap}")


class NoCycleInY(LinkGraphError):
    pass


class BranchSetLacksLink(LinkGraphError):
    pass


class NoEdge(LinkGraphError):
    pass


class WitnessInvalid(LinkGraphError):
    """A constructed minor witness or model failed its own check."""
