"""The iDistance index (Yu, Ooi, Tan & Jagadish, VLDB 2001) — paper ref [14].

iDistance maps every high-dimensional point to a single scalar key: the
dataset is partitioned around reference points, and a point ``p`` assigned to
partition ``j`` is keyed by its distance ``||p − ref_j||``.  Each partition
keeps its keys in one sorted array.  (The paper's B⁺-tree holds all
partitions at once, offset by ``j·C``; separate arrays need no ``C``, so a
vector inserted anywhere lands in its nearest reference's partition.)
k-NN proceeds by expanding-radius annulus searches:

* a query ``q`` with current radius ``r`` needs, in partition ``j``, only the
  keys in ``[d(q, ref_j) − r, d(q, ref_j) + r]`` (the triangle inequality
  bounds every point that can be within ``r``);
* each round gathers those points and scores them with the row-wise
  arithmetic of :class:`~repro.retrieval.linear.LinearScanIndex`;
* the radius grows until the k-th best distance is at most ``r`` less a
  rounding slack, which proves no unexamined point can be nearer or tied.

The answer is bit-identical to a linear scan over the live vectors in id
order, through any sequence of :meth:`~IDistanceIndex.fit`,
:meth:`~IDistanceIndex.insert` and :meth:`~IDistanceIndex.remove`;
``docs/RETRIEVAL.md`` derives the slack, the test-suite pins the equality,
and the benchmark reports the candidate-pruning ratio.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import NotFittedError, RetrievalError
from repro.fuzzy.kmeans import KMeans
from repro.obs.config import (
    is_enabled,
    record_counter,
    record_event,
    record_gauge,
    span,
)
from repro.retrieval.knn import NearestNeighborIndex
from repro.utils.rng import SeedLike
from repro.utils.validation import check_array, check_positive_int, shapes

__all__ = ["IDistanceIndex"]

#: First search radius as a fraction of the largest key.
_INITIAL_RADIUS_FRACTION = 0.1
#: Multiplicative radius growth per search round.
_RADIUS_GROWTH = 2.0


class IDistanceIndex(NearestNeighborIndex):
    """Exact k-NN via one-dimensional iDistance keys, with online updates.

    Parameters
    ----------
    n_partitions:
        Number of reference points; the original paper picks cluster centers,
        and so do we (k-means on the fitted vectors).
    seed:
        Seed for the reference-point clustering (index construction is
        deterministic given it).

    :meth:`fit` numbers its rows ``0..n-1``; :meth:`insert` hands out the
    next id, and a removed id is never reused.
    """

    def __init__(self, n_partitions: int = 8, seed: SeedLike = 0):
        self.n_partitions = check_positive_int(n_partitions, name="n_partitions")
        self.seed = seed
        self._refs: Optional[np.ndarray] = None
        # Row i holds the vector of id i, removed or not.
        self._vectors: Optional[np.ndarray] = None
        # Partition of id i, -1 once removed.
        self._partition: Optional[np.ndarray] = None
        # Per partition: ascending keys and the ids that own them.
        self._keys: List[np.ndarray] = []
        self._members: List[np.ndarray] = []
        #: Candidates examined by the last query (for pruning statistics).
        self.last_candidates: int = 0
        #: Search rounds used by the last query.
        self.last_rounds: int = 0

    # ------------------------------------------------------------------

    @shapes(vectors="(n, d)")
    def fit(self, vectors: np.ndarray) -> "IDistanceIndex":
        """Build reference points and every partition's sorted keys."""
        x = check_array(vectors, name="vectors", ndim=2, allow_empty=False)
        n_parts = min(self.n_partitions, x.shape[0])
        if n_parts >= 2:
            refs = KMeans(n_clusters=n_parts, n_init=1).fit(x, seed=self.seed).centers
        else:
            refs = x.mean(axis=0, keepdims=True)
        diff = x[:, None, :] - refs[None, :, :]
        dist = np.sqrt(np.einsum("npd,npd->np", diff, diff))
        assignment = np.argmin(dist, axis=1)
        radial = dist[np.arange(x.shape[0]), assignment]
        self._refs = refs
        self._vectors = x
        self._partition = assignment
        self._keys, self._members = [], []
        for j in range(refs.shape[0]):
            members = np.flatnonzero(assignment == j)
            order = np.argsort(radial[members], kind="stable")
            self._keys.append(radial[members][order])
            self._members.append(members[order])
        return self

    def insert(self, vector: np.ndarray) -> int:
        """Index one more vector; returns its id."""
        refs = self._fitted_refs()
        assert self._vectors is not None and self._partition is not None
        vector = check_array(vector, name="vector", ndim=1)
        if len(vector) != refs.shape[1]:
            raise RetrievalError(
                f"vector has {len(vector)} dims, index holds "
                f"{refs.shape[1]}-dim vectors"
            )
        diff = refs - vector
        dist = np.sqrt(np.einsum("pd,pd->p", diff, diff))
        j = int(np.argmin(dist))
        vid = len(self._partition)
        self._vectors = np.vstack([self._vectors, vector])
        self._partition = np.append(self._partition, j)
        slot = int(np.searchsorted(self._keys[j], dist[j], side="right"))
        self._keys[j] = np.insert(self._keys[j], slot, dist[j])
        self._members[j] = np.insert(self._members[j], slot, vid)
        return vid

    def remove(self, vid: int) -> bool:
        """Delete the vector with id ``vid``; returns whether it was indexed."""
        self._fitted_refs()
        assert self._partition is not None
        if not 0 <= vid < len(self._partition) or self._partition[vid] < 0:
            return False
        j = int(self._partition[vid])
        self._partition[vid] = -1
        slot = int(np.flatnonzero(self._members[j] == vid)[0])
        self._keys[j] = np.delete(self._keys[j], slot)
        self._members[j] = np.delete(self._members[j], slot)
        return True

    @property
    def n_indexed(self) -> int:
        """Number of currently indexed vectors."""
        self._fitted_refs()
        return sum(len(members) for members in self._members)

    def _fitted_refs(self) -> np.ndarray:
        if self._refs is None:
            raise NotFittedError("IDistanceIndex used before fit")
        return self._refs

    # ------------------------------------------------------------------

    @shapes(vector="(d,)")
    def query(self, vector: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Exact k-NN by expanding annulus search over the partitions' keys."""
        refs = self._fitted_refs()
        n = self.n_indexed
        vector = self._check_query(vector, k, n, refs.shape[1])
        with span("retrieval.idistance_query", k=k, n_indexed=n) as sp:
            result = self._search(refs, vector, k)
            if is_enabled():
                pruning = 1.0 - self.last_candidates / n
                record_counter("retrieval.idistance.queries")
                record_counter("retrieval.idistance.candidates",
                               self.last_candidates)
                record_counter("retrieval.idistance.rounds", self.last_rounds)
                record_gauge("retrieval.idistance.pruning_ratio", pruning)
                record_event("retrieval.query", backend="idistance", k=k,
                             candidates=int(self.last_candidates),
                             rounds=int(self.last_rounds))
                sp.set(candidates=self.last_candidates,
                       rounds=self.last_rounds, pruning_ratio=pruning)
        return result

    def _search(
        self, refs: np.ndarray, vector: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        assert self._vectors is not None
        diff = refs - vector
        ref_dist = np.sqrt(np.einsum("pd,pd->p", diff, diff))
        rho_max = float(ref_dist.max())
        r_max = max(float(keys[-1]) for keys in self._keys if len(keys))
        max_possible = rho_max + r_max
        radius = max(_INITIAL_RADIUS_FRACTION * r_max, 1e-9)
        # Stop-rule slack η·(r + rho_max), η = 2·γ_{d+3} with
        # γ_n = nε/(1 − nε); see docs/RETRIEVAL.md.  At max_possible every
        # key is in range.
        n_eps = (refs.shape[1] + 3) * np.finfo(np.float64).eps
        eta = 2.0 * n_eps / (1.0 - n_eps)
        self.last_rounds = 0
        while True:
            self.last_rounds += 1
            # Annuli only widen, so each round's gather holds every
            # earlier candidate.
            ids = np.concatenate([
                members[np.searchsorted(keys, rho - radius, side="left"):
                        np.searchsorted(keys, rho + radius, side="right")]
                for keys, members, rho in zip(self._keys, self._members,
                                              ref_dist)
            ])
            diff = self._vectors[ids] - vector
            dists = np.sqrt(np.einsum("nd,nd->n", diff, diff))
            if len(ids) >= k:
                top = np.lexsort((ids, dists))[:k]
                if (dists[top[-1]] <= radius - eta * (radius + rho_max)
                        or radius >= max_possible):
                    self.last_candidates = len(ids)
                    return ids[top], dists[top]
            radius = min(radius * _RADIUS_GROWTH, max_possible)
