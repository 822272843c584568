"""Exception types shared across the package."""


class BudgetError(RuntimeError):
    """A configured capacity limit (node budget, omega budget) would be exceeded."""


class BFileFormatError(ValueError):
    """A b-file reference could not be parsed."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number
