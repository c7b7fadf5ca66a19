"""Exception hierarchy for the flowtopo toolkit.

Every failure mode that callers are expected to handle gets its own class so
the CLI can map error categories onto distinct exit codes.  All exceptions
derive from :class:`FlowtopoError`.  Warnings go through :func:`warn`,
which names the caller's line.
"""

from __future__ import annotations

import sys
import warnings

_PACKAGE = __name__.partition(".")[0]


def warn(message: str) -> None:
    """Warn at the first frame outside the package, so that the warning
    names the caller's line through whichever entry point it came."""
    level, frame = 2, sys._getframe(1)
    while frame.f_globals.get("__name__", "").partition(".")[0] == _PACKAGE:
        level, frame = level + 1, frame.f_back
    warnings.warn(message, stacklevel=level)


class FlowtopoError(Exception):
    """Base class for all toolkit errors."""


class ParseError(FlowtopoError):
    """An input file could not be parsed or failed format validation."""


class InvalidArgument(FlowtopoError, ValueError):
    """An argument lies outside its range or does not fit the data.  Also a
    ``ValueError``, the class such checks raised before."""


# ---------------------------------------------------------------------------
# null-space learning


class RankZero(FlowtopoError):
    """No conservation relation was found in the data (null space empty)."""


class FullDeficiency(FlowtopoError):
    """Every singular value is zero; the data matrix carries no signal."""


class NonPositiveFlow(InvalidArgument):
    """Some edge's samples do not sum to a positive flow, which both lanes
    need to scale the edge's row to unit total; no conserved network of
    positive flows produced the data."""


class NoValidPartition(FlowtopoError):
    """No nonsingular dependent column subset of the basis exists."""


class NonIntegerCutset(FlowtopoError):
    """A reduced coefficient is too far from {-1, 0, +1} to snap; the data
    is either noisy or not generated by a conserved network."""


# ---------------------------------------------------------------------------
# canonicalization


class NotUnique(FlowtopoError):
    """A cutset row has no unique opposite-sign coefficient; the input is
    not the cutset matrix of an arborescence conservation graph."""


class NotCanonicalizable(FlowtopoError):
    """Column interchanges did not converge to canonical form."""


# ---------------------------------------------------------------------------
# realization


class NotArborescence(FlowtopoError):
    """Chord-set structure is inconsistent with any arborescence."""


class LabelMismatch(FlowtopoError):
    """Result and reference use different edge-label universes."""


# ---------------------------------------------------------------------------
# noisy estimation


class NotPositiveDefinite(FlowtopoError):
    """The noise covariance has no Cholesky factor."""


class NoStableOrder(FlowtopoError):
    """The eigenvalue-equality test rejected every candidate model order."""


class SnapFailure(FlowtopoError):
    """The noisy lane could not read a cutset off its signal estimate: a
    sink share fell outside the snap band, the order test left no signal
    eigenvalue, the weakest signal eigenvalue did not clear the noise
    floor, or the pivot cutoff kept other than the order test's count."""


# ---------------------------------------------------------------------------
# synthetic generation


class EmptySpec(FlowtopoError):
    """Generator ranges produced an empty network."""
