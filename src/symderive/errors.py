"""Exception types shared across the package.

Everything raised on purpose derives from :class:`Error`, so callers (and the
command-line front end) can distinguish domain failures from genuine bugs.
"""


class Error(Exception):
    """Base class for all errors this package raises deliberately."""


class ParseError(Error):
    """Formula text could not be parsed."""

    def __init__(self, message: str, position: int, expected: str | None = None):
        detail = f"{message} at position {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.position = position
        self.expected = expected


class UnknownKind(Error):
    """A node tag that is not part of the operator vocabulary."""


class ArityError(Error):
    """A node was built with the wrong number of children."""


class InvalidPath(Error):
    """A tree path does not address a node of the given formula."""


class RuleNotApplicable(Error):
    """A rewrite rule's template does not match where it was asked to apply."""


class UnknownRule(Error, KeyError):
    """A rule id that is not in the rule set. Also a KeyError, since a rule
    set is looked up by id; its message prints unquoted, like any Error."""

    __str__ = Exception.__str__


class DuplicateId(Error):
    """Two rules in one set share an id."""


class ValidationFailed(Error):
    """A derived rule's replay (or a trace replay) did not check out."""


class FileFormatError(Error):
    """A rule/trace/Q-table/checkpoint/corpus file is malformed."""


class EncodingOverflow(Error):
    """A formula's code sequence exceeds the table's fixed vector length."""


class TableMismatch(Error):
    """Two feature vectors (or a vector and a table) disagree on length."""


class NoApplicableAction(Error):
    """Action selection was asked to choose from an all-false mask."""


class EpisodeFinished(Error):
    """env_step was called on an environment that already terminated."""


class SearchNotFound(Error):
    """Exhaustive search hit its depth cap without reaching the goal."""


class EmptyDataset(Error):
    """A training call received no samples."""


class UnsolvableInstance(Error):
    """A generated problem instance's expert script failed to reach its goal."""


class CorpusError(Error):
    """A corpus-level integrity check (coverage, consistency, replay) failed."""


class TrainingDiverged(Error):
    """Training drove a loss or a weight to a non-finite value."""
