"""Exception hierarchy shared by all quivercalc modules."""


class QuiverCalcError(Exception):
    """Base class for all errors raised by quivercalc."""


class UnknownVertexError(QuiverCalcError):
    """A vertex identifier is not declared by the quiver."""


class VertexSetMismatchError(QuiverCalcError):
    """A vertex-indexed vector is not defined on exactly the quiver's vertex set."""


class PairingNonzeroError(QuiverCalcError):
    """The stability parameter does not pair to zero with the dimension vector."""


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
    """A required hypothesis on the input datum fails: the one type of a
    failed condition, raised where the condition is decided.

    The failing hypothesis is named in ``assumption``; the commands turn the
    error into an exit-1 refusal report.  The subclasses below are the
    conditions that the path layer and the presentation of vector fields
    decide.
    """

    def __init__(self, assumption: str, detail: str = ""):
        self.assumption = assumption
        message = f"assumption violated: {assumption}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class CyclicQuiverError(AssumptionViolatedError):
    """The quiver has a directed cycle, so its path counts are infinite.

    ``cycle`` holds the arrow indices of one directed cycle; ``hypothesis``
    is the one name of acyclicity, which the ledger reads from here.
    """

    hypothesis = "acyclicity"

    def __init__(self, cycle: tuple[int, ...]):
        self.cycle = cycle
        super().__init__(self.hypothesis, f"cycle arrows {cycle}")


class DisconnectedQuiverError(AssumptionViolatedError):
    """The presentation of vector fields requires a connected quiver."""


class UnsupportedDimensionVectorError(AssumptionViolatedError):
    """The presentation of vector fields requires full support: every d_i >= 1."""


class SpecFileError(QuiverCalcError):
    """A quiver spec file is unreadable, malformed, or semantically invalid.

    ``location`` is a human-readable pointer into the document (JSON path or
    file position) when one is available.
    """

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)
