"""Degradation-aware featurization: diagnose, repair, mask, featurize.

:class:`RobustFeaturizer` wraps a :class:`~repro.features.combine.WindowFeaturizer`
and applies a :class:`~repro.robust.policy.DegradationPolicy` in front of
it:

1. **Diagnose** the record (:func:`repro.robust.detect.diagnose_record`).
2. If the record is **clean**, call the base featurizer directly — the
   output is byte-identical to the non-robust path.
3. Under ``strict``, a non-clean record raises
   :class:`~repro.errors.DegradationError`.
4. Otherwise **repair**: zero out dead EMG channels / dead mocap segments
   (they cannot be reconstructed), gap-fill every remaining NaN run in both
   streams (:func:`repro.mocap.gapfill.fill_gaps` works on any per-column
   signal matrix), and featurize the repaired record.
5. **Renormalize IAV** so signatures built from fewer live channels stay
   comparable to fully-observed ones, then **drop windows** whose valid
   frame fraction falls below the policy threshold — falling back to
   keeping all windows when none survive.

Every step is recorded in a :class:`~repro.robust.report.DegradationReport`
and exported as counters through :mod:`repro.obs`.

The wrapper duck-types the featurizer protocol used across the repo
(``features``, ``cache_fingerprint``, ``window_ms``),
is picklable for process-pool fan-out, and mixes the policy into the cache
fingerprint so robust and non-robust features never collide in the
feature cache.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.data.record import RecordedMotion
from repro.emg.recording import EMGRecording
from repro.errors import DegradationError, ValidationError
from repro.features.base import WindowFeatures
from repro.features.combine import WindowFeaturizer
from repro.mocap.gapfill import fill_gaps
from repro.obs.config import record_counter, span
from repro.robust.detect import StreamDiagnosis, diagnose_record
from repro.robust.faults import rebuild_record
from repro.robust.policy import DegradationPolicy, resolve_policy
from repro.robust.report import DegradationReport

__all__ = ["RobustFeaturizer", "mask_emg_channels", "drop_emg_channels"]


def _channel_indices(record: RecordedMotion, names: Sequence[str]) -> List[int]:
    """Column indices of ``names`` in the record's EMG data, validated."""
    indices = []
    for name in names:
        try:
            indices.append(record.emg.channels.index(name))
        except ValueError:
            raise ValidationError(
                f"channel {name!r} not recorded; have {record.emg.channels}"
            ) from None
    return indices


def mask_emg_channels(
    record: RecordedMotion, names: Sequence[str]
) -> RecordedMotion:
    """A copy of ``record`` with the named EMG channels zeroed out.

    This is exactly what a degradation policy does to a dead channel: the
    channel's columns stay in the feature layout (so signatures remain
    dimension-compatible) but contribute nothing.
    """
    data = record.emg.data_volts.copy()
    data[:, _channel_indices(record, names)] = 0.0
    return rebuild_record(record, emg_data=data)


def drop_emg_channels(
    record: RecordedMotion, names: Sequence[str]
) -> RecordedMotion:
    """A copy of ``record`` with the named EMG channels removed entirely.

    Unlike :func:`mask_emg_channels` this changes the feature layout; it
    exists for ablations and for the property test pinning the equivalence
    *mask-then-featurize == featurize-then-drop-columns*.
    """
    dropped = set(_channel_indices(record, names))
    keep = [j for j in range(record.emg.n_channels) if j not in dropped]
    if not keep:
        raise ValidationError("cannot drop every EMG channel")
    emg = EMGRecording(
        channels=tuple(record.emg.channels[j] for j in keep),
        data_volts=record.emg.data_volts[:, keep],
        fs=record.emg.fs,
        allow_gaps=True,
    )
    return RecordedMotion(
        label=record.label,
        participant_id=record.participant_id,
        trial_id=record.trial_id,
        mocap=record.mocap,
        emg=emg,
        metadata=dict(record.metadata),
    )


class RobustFeaturizer:
    """A degradation-aware wrapper around a window featurizer.

    Parameters
    ----------
    base:
        The wrapped :class:`~repro.features.combine.WindowFeaturizer`.
    policy:
        A :class:`~repro.robust.policy.DegradationPolicy` or preset name
        (``"strict"``, ``"mask"``, ``"repair"``).
    """

    def __init__(
        self,
        base: WindowFeaturizer,
        policy: Union[str, DegradationPolicy] = "mask",
    ):
        resolved = resolve_policy(policy)
        if resolved is None:
            raise DegradationError(
                "RobustFeaturizer requires a policy; use the base featurizer "
                "directly for the non-robust path"
            )
        self.base = base
        self.policy = resolved

    # -- featurizer protocol -------------------------------------------

    @property
    def window_ms(self) -> float:
        """Window duration of the wrapped featurizer."""
        return self.base.window_ms

    @property
    def stride_ms(self):
        """Stride of the wrapped featurizer."""
        return self.base.stride_ms

    @property
    def use_emg(self) -> bool:
        """Whether the wrapped featurizer extracts EMG features."""
        return self.base.use_emg

    @property
    def use_mocap(self) -> bool:
        """Whether the wrapped featurizer extracts mocap features."""
        return self.base.use_mocap

    def feature_names(self, record: RecordedMotion) -> List[str]:
        """Dimension names of the combined vector (same as the base)."""
        return self.base.feature_names(record)

    def cache_fingerprint(self) -> str:
        """Base fingerprint plus the policy — robust features cache apart."""
        return f"{self.base.cache_fingerprint()}|{self.policy.fingerprint()}"

    def features(self, record: RecordedMotion) -> WindowFeatures:
        """Degradation-aware combined feature matrix (report discarded)."""
        return self.features_with_report(record)[0]

    # -- the robust pipeline -------------------------------------------

    def diagnose(self, record: RecordedMotion) -> StreamDiagnosis:
        """Diagnose ``record`` under this policy's saturation threshold."""
        return diagnose_record(
            record, saturation_fraction=self.policy.saturation_fraction
        )

    def repair(
        self, record: RecordedMotion, diagnosis: StreamDiagnosis
    ) -> Tuple[RecordedMotion, int]:
        """Salvage ``record``: mask dead columns, gap-fill NaN runs.

        Returns the repaired record and the number of NaN samples that were
        reconstructed by interpolation (masked columns are zeroed, not
        counted as filled).  A clean record is returned unchanged — the
        same object, so the clean path stays byte-identical.
        """
        if diagnosis.is_clean:
            return record, 0
        emg = record.emg.data_volts.copy()
        mocap = record.mocap.matrix_mm.copy()
        if self.policy.mask_channels:
            # Dead columns first: gap-filling cannot bridge an all-NaN
            # column, and a saturated channel's content is not trustworthy.
            masked = set(diagnosis.emg_dead_channels)
            masked.update(diagnosis.emg_saturated_channels)
            for name in masked:
                emg[:, record.emg.channels.index(name)] = 0.0
            for segment in diagnosis.mocap_dead_segments:
                mocap[:, record.mocap.column_slice(segment)] = 0.0
        n_fill = int(np.isnan(emg).sum() + np.isnan(mocap).sum())
        if np.isnan(emg).any():
            emg = fill_gaps(emg)
        if np.isnan(mocap).any():
            mocap = fill_gaps(mocap)
        return rebuild_record(record, mocap_matrix=mocap, emg_data=emg), n_fill

    def _masked_channels(self, diagnosis: StreamDiagnosis) -> Tuple[str, ...]:
        if not self.policy.mask_channels:
            return ()
        seen = set()
        ordered = []
        for name in diagnosis.emg_dead_channels + diagnosis.emg_saturated_channels:
            if name not in seen:
                seen.add(name)
                ordered.append(name)
        return tuple(ordered)

    def _renormalize_iav(
        self,
        matrix: np.ndarray,
        record: RecordedMotion,
        masked: Tuple[str, ...],
    ) -> np.ndarray:
        """Scale surviving channels' EMG columns by ``n_channels / n_valid``.

        The EMG block leads the combined vector and is laid out
        channel-major with ``features_per_channel`` values per channel (see
        :class:`repro.features.base.EMGFeatureExtractor`), so a channel's
        columns are addressed positionally.
        """
        if not self.base.use_emg or not masked:
            return matrix
        n_channels = record.emg.n_channels
        masked_set = set(masked)
        valid = [j for j, name in enumerate(record.emg.channels)
                 if name not in masked_set]
        if not valid or len(valid) == n_channels:
            return matrix
        fpc = self.base.emg_extractor.features_per_channel
        scale = n_channels / len(valid)
        out = matrix.copy()
        for j in valid:
            out[:, j * fpc : (j + 1) * fpc] *= scale
        return out

    def _window_mask(
        self,
        bounds: Tuple[Tuple[int, int], ...],
        frame_valid: np.ndarray,
    ) -> np.ndarray:
        """Boolean keep-mask over windows from the per-frame validity vote."""
        keep = np.zeros(len(bounds), dtype=bool)
        n = frame_valid.shape[0]
        for i, (start, stop) in enumerate(bounds):
            window_votes = frame_valid[start:min(stop, n)]
            if window_votes.size == 0:
                continue
            keep[i] = float(np.mean(window_votes)) >= self.policy.min_valid_fraction
        return keep

    def features_with_report(
        self, record: RecordedMotion
    ) -> Tuple[WindowFeatures, DegradationReport]:
        """Featurize ``record`` and report every degradation decision.

        Raises
        ------
        DegradationError
            Under a ``strict`` policy, when the record is not clean.
        """
        with span("robust.featurize", key=record.key,
                  policy=self.policy.name) as sp:
            diagnosis = self.diagnose(record)
            if diagnosis.is_clean:
                wf = self.base.features(record)
                report = DegradationReport(
                    policy=self.policy.name,
                    clean=True,
                    n_windows_total=wf.n_windows,
                )
                sp.set(clean=True, n_windows=wf.n_windows)
                return wf, report
            faults = diagnosis.faults_detected()
            if self.policy.on_fault == "raise":
                raise DegradationError(
                    f"record {record.key!r} is degraded under policy "
                    f"{self.policy.name!r}: " + "; ".join(faults)
                )
            record_counter("robust.records_degraded")
            repaired, n_filled = self.repair(record, diagnosis)
            wf = self.base.features(repaired)
            masked = self._masked_channels(diagnosis)
            matrix = self._renormalize_iav(wf.matrix, record, masked)
            keep = self._window_mask(wf.bounds, diagnosis.frame_valid)
            n_total = wf.n_windows
            fallback = not bool(keep.any())
            if fallback:
                # Refuse to answer with nothing: degraded confidence beats
                # an empty feature matrix that downstream cannot use.
                keep = np.ones(n_total, dtype=bool)
            n_dropped = n_total - int(keep.sum())
            out = WindowFeatures(
                matrix=matrix[keep],
                bounds=tuple(b for b, k in zip(wf.bounds, keep) if k),
                names=wf.names,
            )
            record_counter("robust.windows_dropped", n_dropped)
            record_counter("robust.channels_masked", len(masked))
            record_counter("robust.samples_filled", n_filled)
            if fallback:
                record_counter("robust.fallback_all_windows")
            report = DegradationReport(
                policy=self.policy.name,
                clean=False,
                faults_detected=faults,
                channels_masked=masked,
                segments_masked=diagnosis.mocap_dead_segments,
                n_windows_total=n_total,
                n_windows_dropped=n_dropped,
                n_samples_filled=n_filled,
                longest_gap=diagnosis.mocap_longest_gap,
                fallback_all_windows=fallback,
            )
            sp.set(clean=False, n_windows=out.n_windows,
                   n_dropped=n_dropped, n_masked=len(masked))
            return out, report
