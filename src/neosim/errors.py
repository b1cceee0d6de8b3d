"""Exception types shared across the package."""


class NeosimError(Exception):
    """Base class for all neosim errors."""


class MalformedDocument(NeosimError):
    """Input document is not syntactically valid."""


class MissingKey(NeosimError):
    def __init__(self, path: str):
        self.path = path
        super().__init__(f"missing required key: {path}")


class InvalidValue(NeosimError):
    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"invalid value at {path}: {reason}")


class InvalidScheme(NeosimError):
    """Sharding scheme is not valid for the table it is applied to."""


class NoFeasibleScheme(NeosimError):
    """No sharding scheme can place the table on the given cluster."""


class Infeasible(NeosimError):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(f"infeasible: {reason}")


class IndexOutOfRange(NeosimError):
    def __init__(self, table_id: str, index: int):
        self.table_id = table_id
        self.index = index
        super().__init__(f"index {index} out of range for table {table_id}")


class LayoutMismatch(NeosimError):
    """Batch layout does not match what the operation expects."""


class EmptyTrace(NeosimError):
    """Hit rate is undefined on an empty access trace."""
