"""Exception types shared across the package."""


class LexiforgeError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LexiforgeError):
    """Malformed input file (TSV lexicon, translation table, vector file)."""

    def __init__(self, message: str, *, line_no: int | None = None, path=None):
        self.line_no = line_no
        self.path = path
        where = ""
        if path is not None:
            where += f"{path}:"
        if line_no is not None:
            where += f"line {line_no}: "
        elif where:
            where += " "
        super().__init__(where + message)


class SchemaError(LexiforgeError):
    """Input is well-formed but does not match the expected schema."""


class IntegrityError(LexiforgeError):
    """A data invariant was violated (duplicates, inconsistent splits, ...)."""


class NumericError(LexiforgeError):
    """A numerical procedure cannot produce a meaningful result."""


class DivergenceError(NumericError):
    """Training produced a non-finite loss."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"non-finite training loss at optimizer step {step}")


class DegenerateVarianceError(NumericError):
    """Correlation of a zero-variance series is undefined."""


class InsufficientOverlapError(LexiforgeError):
    """Fewer than two shared items; no correlation can be reported."""


class MissingTranslationError(LexiforgeError):
    """A source word has no entry in the translation table (strict mode)."""


class PipelineError(LexiforgeError):
    """A pipeline stage failed; names the stage."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        super().__init__(f"stage '{stage}' failed: {cause}")
