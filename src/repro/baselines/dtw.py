"""Dynamic time warping over raw motion matrices, with LB_Keogh pruning.

The baseline works on the same synchronized (EMG + mocap) streams as the
paper's classifier but skips all feature extraction: motions are z-scored
per dimension, resampled to a common length, and compared by multivariate
DTW.  LB_Keogh bounding envelopes (Keogh et al., the paper's reference [8])
prune candidates whose lower bound already exceeds the best distance so far,
exactly as in the cited indexing work.

The point of the baseline in this repository is the paper's implicit claim:
a 2c-dimensional signature is *much* cheaper to search than raw sequences
while staying competitive in accuracy — measured by
``benchmarks/test_ablation_dtw_baseline.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.dataset import MotionDataset
from repro.data.record import RecordedMotion
from repro.errors import NotFittedError, RetrievalError, ValidationError
from repro.retrieval.knn import knn_vote
from repro.utils.validation import check_array, check_in_range, check_positive_int

__all__ = ["dtw_distance", "keogh_envelope", "lb_keogh", "DTWClassifier"]


def dtw_distance(
    a: np.ndarray,
    b: np.ndarray,
    band_fraction: float = 0.1,
) -> float:
    """Multivariate DTW distance with a Sakoe-Chiba band.

    Parameters
    ----------
    a, b:
        Sequences of shape ``(n, d)`` and ``(m, d)``; per-step cost is the
        squared Euclidean distance between frames.
    band_fraction:
        Half-width of the warping band as a fraction of the longer sequence
        (0 disables warping flexibility beyond the diagonal).

    Returns
    -------
    float
        The square root of the accumulated squared cost along the optimal
        warping path.
    """
    a = check_array(a, name="a", ndim=2, allow_empty=False)
    b = check_array(b, name="b", ndim=2, allow_empty=False)
    if a.shape[1] != b.shape[1]:
        raise ValidationError(
            f"sequences must share dimensionality: {a.shape[1]} vs {b.shape[1]}"
        )
    band_fraction = check_in_range(band_fraction, name="band_fraction",
                                   low=0.0, high=1.0)
    n, m = a.shape[0], b.shape[0]
    band = max(1, int(np.ceil(band_fraction * max(n, m))), abs(n - m))

    prev = np.full(m + 1, np.inf)
    prev[0] = 0.0
    for i in range(1, n + 1):
        cur = np.full(m + 1, np.inf)
        lo = max(1, i - band)
        hi = min(m, i + band)
        diff = b[lo - 1 : hi] - a[i - 1]
        costs = np.einsum("md,md->m", diff, diff)
        for j, cost in zip(range(lo, hi + 1), costs):
            cur[j] = cost + min(prev[j], cur[j - 1], prev[j - 1])
        prev = cur
    return float(np.sqrt(prev[m]))


def keogh_envelope(seq: np.ndarray, band: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-dimension running min/max envelopes over a warping band.

    Returns ``(lower, upper)`` arrays of the same shape as ``seq``.
    """
    seq = check_array(seq, name="seq", ndim=2, allow_empty=False)
    band = check_positive_int(band, name="band")
    n = seq.shape[0]
    lower = np.empty_like(seq)
    upper = np.empty_like(seq)
    for i in range(n):
        lo = max(0, i - band)
        hi = min(n, i + band + 1)
        window = seq[lo:hi]
        lower[i] = window.min(axis=0)
        upper[i] = window.max(axis=0)
    return lower, upper


def lb_keogh(query: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> float:
    """LB_Keogh lower bound of the DTW distance.

    Sums, per frame and dimension, the squared exceedance of the query over
    the candidate's envelope.  Requires the query and the envelope to share
    the same length (the classifier resamples all motions to one length).
    """
    query = check_array(query, name="query", ndim=2, allow_empty=False)
    if query.shape != lower.shape or query.shape != upper.shape:
        raise ValidationError(
            f"query {query.shape} and envelopes {lower.shape} must match"
        )
    above = np.maximum(query - upper, 0.0)
    below = np.maximum(lower - query, 0.0)
    return float(np.sqrt(np.sum(above**2 + below**2)))


class DTWClassifier:
    """1-NN / k-NN classifier over raw motion matrices via DTW.

    Parameters
    ----------
    resample_length:
        All motions are linearly resampled to this many frames, making the
        envelopes and bounds directly comparable.
    band_fraction:
        Sakoe-Chiba band half-width as a fraction of the sequence length.
    use_lower_bound:
        Toggle LB_Keogh pruning (exactness is unaffected; only speed).
    """

    def __init__(
        self,
        resample_length: int = 64,
        band_fraction: float = 0.1,
        use_lower_bound: bool = True,
    ):
        self.resample_length = check_positive_int(
            resample_length, name="resample_length", minimum=4
        )
        self.band_fraction = check_in_range(
            band_fraction, name="band_fraction", low=0.0, high=1.0
        )
        self.use_lower_bound = use_lower_bound
        self._sequences: List[np.ndarray] = []
        self._envelopes: List[Tuple[np.ndarray, np.ndarray]] = []
        self._labels: List[str] = []
        self._keys: List[str] = []
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None
        #: DTW computations actually run by the last query (pruning stat).
        self.last_dtw_calls = 0

    # ------------------------------------------------------------------

    def _combined(self, record: RecordedMotion) -> np.ndarray:
        return np.hstack([
            np.asarray(record.emg.data_volts),
            np.asarray(record.mocap.matrix_mm),
        ])

    def _resample(self, seq: np.ndarray) -> np.ndarray:
        n = seq.shape[0]
        if n == self.resample_length:
            return seq.copy()
        src = np.linspace(0.0, 1.0, n)
        dst = np.linspace(0.0, 1.0, self.resample_length)
        return np.stack(
            [np.interp(dst, src, seq[:, j]) for j in range(seq.shape[1])],
            axis=1,
        )

    def fit(self, database: MotionDataset) -> "DTWClassifier":
        """Normalize, resample and envelope every database motion."""
        if len(database) == 0:
            raise ValidationError("cannot fit on an empty database")
        raw = [self._resample(self._combined(rec)) for rec in database]
        stacked = np.vstack(raw)
        self._mean = stacked.mean(axis=0)
        std = stacked.std(axis=0)
        self._std = np.where(std < 1e-12, 1.0, std)
        band = max(1, int(np.ceil(self.band_fraction * self.resample_length)))
        self._sequences = [(seq - self._mean) / self._std for seq in raw]
        self._envelopes = [keogh_envelope(seq, band) for seq in self._sequences]
        self._labels = [rec.label for rec in database]
        self._keys = [rec.key for rec in database]
        return self

    def _prepare_query(self, record: RecordedMotion) -> np.ndarray:
        if self._mean is None or self._std is None:
            raise NotFittedError("DTWClassifier used before fit")
        seq = self._resample(self._combined(record))
        return (seq - self._mean) / self._std

    # ------------------------------------------------------------------

    def kneighbors(
        self, record: RecordedMotion, k: int = 5
    ) -> List[Tuple[str, str, float]]:
        """The ``k`` nearest database motions as ``(key, label, distance)``.

        Uses LB_Keogh to skip candidates whose lower bound exceeds the
        current k-th best distance; results equal an exhaustive scan.
        """
        query = self._prepare_query(record)
        k = check_positive_int(k, name="k")
        if k > len(self._sequences):
            raise RetrievalError(
                f"k={k} exceeds the {len(self._sequences)} indexed motions"
            )
        # Process candidates in ascending lower-bound order so the best-so-
        # far threshold tightens quickly.
        if self.use_lower_bound:
            bounds = np.array([
                lb_keogh(query, lo, up) for lo, up in self._envelopes
            ])
        else:
            bounds = np.zeros(len(self._sequences))
        order = np.argsort(bounds, kind="stable")
        best: List[Tuple[float, int]] = []
        self.last_dtw_calls = 0
        for idx in order:
            if len(best) == k and bounds[idx] >= best[-1][0]:
                break  # every remaining lower bound is at least this large
            d = dtw_distance(query, self._sequences[idx], self.band_fraction)
            self.last_dtw_calls += 1
            best.append((d, int(idx)))
            best.sort()
            best = best[:k]
        return [
            (self._keys[i], self._labels[i], d) for d, i in best
        ]

    def classify(self, record: RecordedMotion, k: int = 1) -> str:
        """Predict the motion class by k-NN vote over DTW distances."""
        neighbors = self.kneighbors(record, k)
        return knn_vote(
            [label for _, label, _ in neighbors],
            np.asarray([d for _, _, d in neighbors]),
        )
