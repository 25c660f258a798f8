"""Exception hierarchy shared by all savae modules."""


class SavaeError(Exception):
    """Base class for all errors raised by this package."""

    #: short machine-parseable category, used by the CLI error reporting
    category = "Error"


class IoError(SavaeError):
    category = "IoError"


class ParseError(SavaeError):
    category = "ParseError"

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class EmptyCorpus(SavaeError):
    category = "EmptyCorpus"


class EmptyDocument(SavaeError):
    category = "EmptyDocument"


class AllDocumentsEmpty(SavaeError):
    category = "AllDocumentsEmpty"


class ConfigError(SavaeError):
    """One or more invalid configuration fields; collects all violations."""

    category = "ConfigError"

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NonFiniteGradient(SavaeError):
    """A gradient, or a term it is computed from, is not finite.

    ``source`` names it (``"parameter 'X'"``), ``context`` says where in
    training it happened and ``detail`` why.
    """

    category = "NonFiniteGradient"

    def __init__(self, source, context="", detail=""):
        self.source = source
        self.detail = detail
        msg = f"non-finite gradient in {source}"
        if context:
            msg += f" ({context})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class UnsupportedVersion(SavaeError):
    category = "UnsupportedVersion"


class CorruptCheckpoint(SavaeError):
    category = "CorruptCheckpoint"


class CorruptFile(SavaeError):
    """A data file (other than a checkpoint) that is not in its format."""

    category = "CorruptFile"


class DegenerateCentroids(SavaeError):
    category = "DegenerateCentroids"


class DegenerateClusters(SavaeError):
    category = "DegenerateClusters"


class DegenerateLabels(SavaeError):
    category = "DegenerateLabels"


class UnknownToken(SavaeError):
    category = "UnknownToken"
