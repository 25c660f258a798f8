"""Exception hierarchy shared by all savae modules.

The CLI reports an error as ``error: <category>: <message>``, where the
category is the exception's class name.
"""


class SavaeError(Exception):
    """Base class for all errors raised by this package."""


class IoError(SavaeError):
    """A file or directory is missing, or cannot be created."""


class ParseError(SavaeError):
    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class EmptyCorpus(SavaeError):
    """A corpus without tokens, or without a training document to learn from."""


class EmptyDocument(SavaeError):
    """A document without words where one needs them."""


class AllDocumentsEmpty(SavaeError):
    """Every document of an input is empty: nothing to score or represent."""


class ConfigError(SavaeError):
    """One or more invalid configuration fields; collects all violations."""

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
    """A binary file of a format version that is not read."""


class CorruptCheckpoint(SavaeError):
    """A checkpoint file that is not in its format."""


class CorruptFile(SavaeError):
    """A data file (other than a checkpoint) that is not in its format."""


class DegenerateCentroids(SavaeError):
    """Clusters whose centroids coincide."""


class DegenerateClusters(SavaeError):
    """Too few clusters, or none with any spread."""


class DegenerateLabels(SavaeError):
    """Labels an evaluation cannot use: missing, not binary, or never relevant."""


class UnknownToken(SavaeError):
    """A query word that is not in the vocabulary."""
