"""Exception hierarchy shared by all quivercalc modules."""


class QuiverCalcError(Exception):
    """Base class for all errors raised by quivercalc."""


class UnknownVertexError(QuiverCalcError):
    """A vertex identifier is not declared by the quiver."""


class VertexSetMismatchError(QuiverCalcError):
    """A vertex-indexed vector is not defined on exactly the quiver's vertex set."""


class CyclicQuiverError(QuiverCalcError):
    """The operation requires an acyclic quiver."""


class DisconnectedQuiverError(QuiverCalcError):
    """The operation requires a connected quiver."""


class PairingNonzeroError(QuiverCalcError):
    """The stability parameter does not pair to zero with the dimension vector."""


class UnsupportedDimensionVectorError(QuiverCalcError):
    """The dimension vector has an unsupported shape (e.g. a zero entry where full support is required)."""


class QuiverMismatchError(QuiverCalcError):
    """Two representations do not live over the same quiver."""


class BudgetExceededError(QuiverCalcError):
    """An exhaustive enumeration would exceed its object budget.

    ``counted`` names the objects, ``size`` is how many the enumeration would
    visit and ``budget`` is the most it may.
    """

    def __init__(self, counted: str, size: int, budget: int):
        self.counted = counted
        self.size = size
        self.budget = budget
        super().__init__(f"{size} {counted} exceed the budget of {budget}")


class NotThinAtEndpointsError(QuiverCalcError):
    """A path evaluation requires dimension 1 at the path's source and target."""


class AssumptionViolatedError(QuiverCalcError):
    """A required hypothesis on the input datum fails.

    The failing hypothesis is named in ``assumption``.
    """

    def __init__(self, assumption: str, detail: str = ""):
        self.assumption = assumption
        message = f"assumption violated: {assumption}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class SpecFileError(QuiverCalcError):
    """A quiver spec file is unreadable, malformed, or semantically invalid.

    ``location`` is a human-readable pointer into the document (JSON path or
    file position) when one is available.
    """

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)
