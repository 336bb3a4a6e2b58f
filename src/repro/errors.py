"""Exception hierarchy for the ``repro`` library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except ReproError`` while letting programming errors (``TypeError`` from
misuse of numpy, etc.) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ValidationError",
    "SignalError",
    "SkeletonError",
    "AcquisitionError",
    "FeatureError",
    "ClusteringError",
    "NotFittedError",
    "DatasetError",
    "RetrievalError",
    "StoreError",
    "SerializationError",
    "CacheError",
    "LintError",
    "FaultInjectionError",
    "DegradationError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ValidationError(ReproError, ValueError):
    """An input array or parameter failed validation.

    Also a ``ValueError`` so that generic numeric call-sites that expect
    ``ValueError`` on bad input keep working.
    """


class SignalError(ReproError):
    """A DSP operation received an unusable signal or configuration."""


class SkeletonError(ReproError):
    """The skeleton definition is inconsistent (unknown segment, cycle...)."""


class AcquisitionError(ReproError):
    """A simulated acquisition device was misconfigured or out of sync."""


class FeatureError(ReproError):
    """Feature extraction could not be performed on the given window/matrix."""


class ClusteringError(ReproError):
    """Fuzzy or hard clustering failed (bad c, degenerate data...)."""


class NotFittedError(ClusteringError):
    """A model method requiring a prior ``fit`` was called before fitting."""


class DatasetError(ReproError):
    """A dataset/protocol operation failed (empty class, label mismatch...)."""


class RetrievalError(ReproError):
    """A similarity-search structure was queried in an invalid way."""


class StoreError(RetrievalError):
    """The persistent signature store is inconsistent or was misused."""


class SerializationError(ReproError):
    """Saving or loading a dataset/model artifact, or pickling work for a
    process pool, failed."""


class CacheError(ReproError):
    """A feature-cache store is unusable (bad directory, unwritable entry)."""


class LintError(ReproError):
    """The static-analysis runner could not lint a target (bad path, syntax)."""


class FaultInjectionError(ReproError):
    """A fault specification is invalid or cannot be applied to the record."""


class DegradationError(ReproError):
    """A degraded input was rejected (strict policy) or cannot be salvaged."""
