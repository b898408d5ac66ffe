"""Exception taxonomy shared across the package.

DomainError covers bad numeric/structural arguments (CLI exit code 2).
InfeasibleError covers well-formed requests with no possible answer
(odd pairing totals, impossible degree splits; CLI exit code 3).  A bare
KflabError is an internal fault, such as a constructed factor failing its
own verification (CLI exit code 1).
"""


class KflabError(Exception):
    pass


class DomainError(KflabError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class InfeasibleError(KflabError, ValueError):
    """No object with the requested properties exists."""


class ParityError(InfeasibleError):
    """An odd total where a perfect pairing was required."""
