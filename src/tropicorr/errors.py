"""Exception hierarchy with stable machine-readable codes.

Every domain error carries a ``code`` string that the CLI surfaces verbatim,
so scripts can dispatch on it without parsing messages.
"""


class TropicorrError(Exception):
    code = "Error"

    def __init__(self, message=""):
        super().__init__(message or self.code)


class BadSubdivision(TropicorrError):
    code = "BadSubdivision"


class NotStabilizable(TropicorrError):
    code = "NotStabilizable"


class NotBalanced(TropicorrError):
    code = "NotBalanced"


class GenusNotOne(TropicorrError):
    code = "GenusNotOne"


class ConstraintCountMismatch(TropicorrError):
    code = "ConstraintCountMismatch"


class ConstraintUnsatisfied(TropicorrError):
    code = "ConstraintUnsatisfied"


class ZeroSlopeCycleEdge(TropicorrError):
    code = "ZeroSlopeCycleEdge"


class NonUnitMultiplicity(TropicorrError):
    """The plain elliptic complex needs every edge multiplicity l(e) = 1."""
    code = "NonUnitMultiplicity"


class NotReduced(TropicorrError):
    code = "NotReduced"


class HypothesisFailed(TropicorrError):
    """A counting theorem hypothesis does not hold; ``flag`` names the first
    violated one."""

    def __init__(self, flag, message=""):
        self.flag = flag
        self.code = "HypothesisFailed:" + flag
        super().__init__(message or self.code)


class CrossCheckFailed(TropicorrError):
    """Two independent routes to the same quantity disagree; ``check`` names
    the cross-check.  Raised instead of an ``assert`` so that it survives
    ``python -O``."""

    def __init__(self, check, message=""):
        self.check = check
        self.code = "CrossCheckFailed:" + check
        super().__init__(message or self.code)


class ParseError(TropicorrError):
    code = "ParseError"
