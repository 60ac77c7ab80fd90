"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class DomainError(ValueError):
    """A value is outside an operation's admissible domain."""


class TapeError(ValueError):
    """A node reference was used against a tape it does not belong to."""


class BudgetError(ValueError):
    """A perturbation violates its declared norm budget."""


class DivergenceError(RuntimeError):
    """Every batch of a training epoch had a non-finite loss term."""


class StageError(RuntimeError):
    """An experiment stage failed; carries the stage name."""

    def __init__(self, stage, message):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
