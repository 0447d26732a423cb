"""Exception hierarchy for the workbench."""


def count_text(n: int) -> str:
    """A count for an error message: in full below 10^50, else as its first
    six digits and decimal exponent, d.ddddde+E (truncated), because str()
    of an int with more than 4300 digits raises ValueError."""
    if n < 10**50:
        return str(n)
    e = (n.bit_length() - 1) * 30102 // 100000  # at most floor(log10 n)
    while 10 ** (e + 1) <= n:
        e += 1
    lead = str(n // 10 ** (e - 5))
    return f"{lead[0]}.{lead[1:]}e+{e}"


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class NotPrime(WorkbenchError):
    pass


class BudgetExceeded(WorkbenchError):
    """An enumeration or table would exceed the configured budget."""


class ResourceCap(BudgetExceeded):
    """A field or dense table would exceed a fixed size cap that no
    budget lifts."""


class SpecMismatch(WorkbenchError):
    """Operands belong to different field constructions."""


class DivisionByZero(WorkbenchError, ZeroDivisionError):
    pass


class NotSquareField(WorkbenchError):
    pass


class NotInSubfield(WorkbenchError):
    pass


class NotCoprime(WorkbenchError):
    def __init__(self, n: int, q: int):
        super().__init__(f"n={n} and q={q} are not coprime")


class NotPrimitiveRoot(WorkbenchError):
    pass


class DegenerateDimension(WorkbenchError):
    """The dual of the requested code does not have dimension 4."""


class Falsified(WorkbenchError):
    """A checked claim does not hold; the message carries the witness."""


class NonIntegerResult(Falsified):
    """A transform produced a non-integer count; the input was inconsistent."""


class FourWeightViolation(Falsified):
    pass


class ValueSetViolation(Falsified):
    """A solution count fell outside its proven value set."""


class MultiplicityNotQMinus1(Falsified):
    """A weight-k support is carried by non-proportional codewords."""


class NotRegular(Falsified):
    """Block multiset is not a t-design; carries a witness t-subset."""

    def __init__(self, subset, count, expected):
        self.subset = tuple(subset)
        self.count = count
        self.expected = expected
        super().__init__(
            f"t-subset {self.subset} lies in {count} blocks, expected {expected}"
        )


class NotFullCase(WorkbenchError):
    pass


class NoDelta(WorkbenchError):
    pass


class InvalidParameters(WorkbenchError):
    pass


class NotApplicable(WorkbenchError):
    pass
