"""Exception taxonomy.

Everything raised on purpose by this package derives from JetError, so
callers (and the CLI) can tell a deliberate mathematical/structural failure
apart from a plain bug.
"""


class JetError(Exception):
    """Base class for all deliberate failures."""


# --- kernel arithmetic ---

class DivisionByZero(JetError):
    """Denominator is the zero polynomial."""


class SubstitutionPole(JetError):
    """A substitution sent a denominator to the zero polynomial."""


class DenominatorZero(JetError):
    """Exact evaluation hit a vanishing denominator at the given point."""


# --- systems and jets ---

class NotAffine(JetError):
    """Right-hand side is not affine in the controls."""


class DimensionMismatch(JetError):
    """Vector/matrix shapes disagree with the declared system dimensions."""


class EmptyPromotionSet(JetError):
    """Partial prolongation was asked to promote an empty set of controls."""


class DegenerateSystem(JetError):
    """Generic-rank regularity check failed (e.g. rank f_u deficient everywhere sampled)."""


# --- coframes ---

class NotNormalizedForm(JetError):
    """Adapted coframe requested for a system not in the required shape."""


class TruncationExceeded(JetError):
    """A form mentions a differential beyond the frame's truncation level."""


class StructureViolation(JetError):
    """Structure equations (or a required matrix shape) fail to hold."""


# --- equivalence / pullback ---

class DtResidue(JetError):
    """Pullback of a contact form has a nonzero dt component; the map does not preserve solutions."""


class RepeatViolation(JetError):
    """High-level blocks of a pullback matrix fail to repeat as required."""


class ScalarContradiction(JetError):
    """Single-control orders violate the forced (-1, -1) pattern."""


# --- factorization ---

class RankMismatch(JetError):
    """A block that must have generic rank one (or full rank) does not."""


class PivotVanishes(JetError):
    """Elimination pivot is identically zero; input is outside the factorable class."""


class DiagonalDrift(JetError):
    """Diagonal blocks at levels >= 1 are not all equal."""


class PatternViolation(JetError):
    """Matrix does not match the required sparse pattern."""


# --- classification ---

class UnclassifiedSignature(JetError):
    """Invariant signature matches no row of the decision table."""


class OutOfTable(JetError):
    """System outside the classified range (too many states/controls)."""


# --- text formats ---

class _PositionalError(JetError):
    """An input-text error that carries .line and .col and, when it has a
    line, names it first in its message."""

    def __init__(self, msg, line=None, col=None):
        self.line, self.col = line, col
        if line is not None:
            msg = "line %d, col %d: %s" % (line, col, msg)
        super().__init__(msg)


class ParseError(_PositionalError):
    """Token-level error in an input file. Carries line/column."""


class SemanticError(_PositionalError):
    """Well-formed text with an invalid meaning (unknown key, bad index...)."""


class ArityMismatch(JetError):
    """Wrong number of components for the declared dimensions."""


# --- numeric crosscheck ---

class SingularTrajectory(JetError):
    """Sampled trajectory runs through an assumption zero; no valid resample found."""


class UsageError(JetError):
    """Bad CLI invocation."""
