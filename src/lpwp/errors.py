"""Exception hierarchy for the toolkit."""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ToolkitError):
    """Input data violates a schema or structural invariant."""

    def __init__(self, message, *, line=None, field=None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.field = field

    def __str__(self):
        # Built on demand, so a line set after construction shows too.
        parts = []
        if self.line is not None:
            parts.append(f"line {self.line}")
        if self.field is not None:
            parts.append(f"field {self.field}")
        prefix = f"[{', '.join(parts)}] " if parts else ""
        return prefix + self.message


class UnsupportedDeclarationError(ValidationError):
    """A gold record uses a declaration type the toolkit does not model."""


class IrParseError(ToolkitError):
    """IR grammar violation, with the character position of the fault.

    Raised by strict-mode parsing; lenient mode turns it into a diagnostic.
    """

    def __init__(self, message, position):
        self.message = message
        self.position = position
        super().__init__(f"char {position}: {message}")


class MappingError(ToolkitError):
    """A variable surface name does not resolve in the order mapping."""


class StructureError(ToolkitError):
    """Declarations do not form a well-shaped program (e.g. no objective)."""


class SolverError(ToolkitError):
    """The simplex did not end within its pivot ceiling."""
