"""Tenant/region sharding of the signature store's k-NN search.

A :class:`ShardRouter` deterministically maps every record to one of
``n_shards`` shards — by a stable BLAKE2b hash of its tenant key
(``mode="tenant"``), or by its nearest cluster-region center
(``mode="region"``, k-means over the indexed vectors).
:class:`ShardedSignatureIndex` fans a batched k-NN query out to the
relevant shards and merges the per-shard candidates into the final
top-k.

Each shard scores a batch with the shared matrix-product kernel
:func:`repro.utils.distances.squared_distances` and keeps every row
within a proved rounding margin of its m-th smallest score (see
:meth:`ShardedSignatureIndex._scan_shard`), a superset of the shard's
share of the exact answer.  The merge recomputes every candidate
distance with the *same* row-wise ``einsum`` arithmetic as
:class:`~repro.retrieval.linear.LinearScanIndex` and breaks ties by
record id, so the sharded answer is **bit-identical** to a global linear
scan over the id-sorted signature matrix — for every shard count, every
``k``, and every tenant filter.  The differential harness in
``tests/retrieval/test_store_equivalence.py`` asserts exactly that.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import NotFittedError, RetrievalError
from repro.fuzzy.kmeans import KMeans
from repro.obs.config import (
    is_enabled,
    record_counter,
    record_event,
    span,
)
from repro.retrieval.knn import NearestNeighborIndex
from repro.retrieval.store import SignatureStore, StoreContents
from repro.utils.distances import squared_distances
from repro.utils.rng import SeedLike
from repro.utils.validation import check_array, check_positive_int

__all__ = ["ShardRouter", "ShardedSignatureIndex", "tenant_shard"]

_ROUTER_MODES = ("tenant", "region")


def tenant_shard(tenant: str, n_shards: int) -> int:
    """Stable shard assignment for a tenant key.

    Uses BLAKE2b (not Python's salted ``hash``) so the same key lands on
    the same shard in every process, across runs and machines.
    """
    n_shards = check_positive_int(n_shards, name="n_shards")
    digest = hashlib.blake2b(tenant.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % n_shards


class ShardRouter:
    """Deterministic record→shard assignment.

    Parameters
    ----------
    n_shards:
        Number of shards.
    mode:
        ``"tenant"`` — stable hash of the tenant key; every tenant's
        records live on one shard.  ``"region"`` — nearest of
        ``n_shards`` k-means cluster-region centers (requires
        :meth:`fit`); spatially close signatures share a shard.
    seed:
        Seed for the region-center clustering.
    """

    def __init__(self, n_shards: int = 4, mode: str = "tenant",
                 seed: SeedLike = 0):
        self.n_shards = check_positive_int(n_shards, name="n_shards")
        if mode not in _ROUTER_MODES:
            raise RetrievalError(
                f"router mode must be one of {_ROUTER_MODES}, got {mode!r}"
            )
        self.mode = mode
        self.seed = seed
        self._centers: Optional[np.ndarray] = None

    def fit(self, vectors: np.ndarray) -> "ShardRouter":
        """Fit region centers (no-op in tenant mode)."""
        if self.mode == "tenant":
            return self
        x = check_array(vectors, name="vectors", ndim=2, allow_empty=False)
        n_regions = min(self.n_shards, x.shape[0])
        if n_regions >= 2:
            self._centers = KMeans(n_clusters=n_regions, n_init=1).fit(
                x, seed=self.seed
            ).centers
        else:
            self._centers = x.mean(axis=0, keepdims=True)
        return self

    @property
    def region_centers(self) -> Optional[np.ndarray]:
        """Fitted ``(n_regions, d)`` centers (``None`` in tenant mode)."""
        return self._centers

    def shard_of_tenant(self, tenant: str) -> int:
        """The shard owning ``tenant`` (tenant mode only)."""
        if self.mode != "tenant":
            raise RetrievalError(
                "shard_of_tenant is only defined for tenant-mode routers"
            )
        return tenant_shard(tenant, self.n_shards)

    def assign(self, tenants: Sequence[str],
               vectors: np.ndarray) -> np.ndarray:
        """Shard index per record."""
        x = check_array(vectors, name="vectors", ndim=2)
        if len(tenants) != x.shape[0]:
            raise RetrievalError(
                f"{x.shape[0]} vectors but {len(tenants)} tenants"
            )
        if self.mode == "tenant":
            # Hash each distinct tenant once; records look their shard up.
            shard_of = {t: tenant_shard(t, self.n_shards) for t in set(tenants)}
            return np.fromiter((shard_of[t] for t in tenants),
                               dtype=np.int64, count=len(tenants))
        if self._centers is None:
            raise NotFittedError("region-mode ShardRouter used before fit")
        return np.argmin(squared_distances(x, self._centers),
                         axis=1).astype(np.int64)


class _Shard:
    """One shard's slice of the index's matrix and its row norms."""

    def __init__(self, vectors: np.ndarray, tenant_codes: np.ndarray,
                 rows: np.ndarray, sq_norms: np.ndarray):
        self.vectors = vectors
        self.tenant_codes = tenant_codes
        #: Row positions into the index's (shard, id)-ordered matrix.
        self.rows = rows
        #: ``‖v‖²`` per row and their maximum; fixed once the shard is built.
        self.sq_norms = sq_norms
        self.max_sq = float(sq_norms.max())

    def __len__(self) -> int:
        return len(self.rows)


class ShardedSignatureIndex(NearestNeighborIndex):
    """Batched exact k-NN over tenant/region-sharded signatures.

    Parameters
    ----------
    n_shards:
        Number of shards the database is routed into.
    mode:
        Router mode (see :class:`ShardRouter`).
    seed:
        Seed for router region centers.
    router:
        Pre-built router to reuse; overrides ``n_shards``/``mode``.
    """

    def __init__(
        self,
        n_shards: int = 4,
        mode: str = "tenant",
        seed: SeedLike = 0,
        router: Optional[ShardRouter] = None,
    ):
        self.router = router if router is not None else ShardRouter(
            n_shards=n_shards, mode=mode, seed=seed
        )
        self.n_shards = self.router.n_shards
        self._shards: Optional[Dict[int, _Shard]] = None
        self._ids: Optional[np.ndarray] = None
        self._vectors: Optional[np.ndarray] = None
        self._tenant_codes: Optional[np.ndarray] = None
        self._tenant_table: Optional[Tuple[str, ...]] = None
        #: Candidates merged by the last query batch.
        self.last_candidates = 0
        #: Shards probed by the last query batch.
        self.last_shards_probed = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def fit(self, vectors: np.ndarray) -> "ShardedSignatureIndex":
        """Index anonymous vectors (ids ``0..n-1``, one tenant)."""
        x = check_array(vectors, name="vectors", ndim=2, allow_empty=False)
        ids = np.arange(x.shape[0], dtype=np.uint64)
        return self.fit_arrays(ids, x, ["default"] * x.shape[0])

    def fit_store(self, store: SignatureStore,
                  tenant: Optional[str] = None) -> "ShardedSignatureIndex":
        """Build the shards from a persisted store's segments."""
        contents = store.records(tenant=tenant)
        if len(contents) == 0:
            raise RetrievalError("cannot index an empty signature store")
        return self.fit_contents(contents)

    def fit_contents(self, contents: StoreContents) -> "ShardedSignatureIndex":
        """Build the shards from loaded store contents."""
        return self.fit_arrays(contents.ids, contents.vectors,
                               list(contents.tenants))

    def fit_arrays(
        self,
        ids: np.ndarray,
        vectors: np.ndarray,
        tenants: Sequence[str],
    ) -> "ShardedSignatureIndex":
        """Index ``(ids, vectors, tenants)`` triples.

        The vectors are gathered once, into (shard, id) order, and every
        shard is a slice of that one matrix.  The merge breaks distance
        ties by record id, the oracle's order over id-sorted rows.
        """
        x = check_array(vectors, name="vectors", ndim=2, allow_empty=False)
        id_arr = check_array(ids, name="ids", ndim=1).astype(np.uint64)
        if len(id_arr) != x.shape[0]:
            raise RetrievalError(
                f"{x.shape[0]} vectors but {len(id_arr)} ids"
            )
        if len(tenants) != x.shape[0]:
            raise RetrievalError(
                f"{x.shape[0]} vectors but {len(tenants)} tenants"
            )
        if len(np.unique(id_arr)) != len(id_arr):
            raise RetrievalError("record ids must be unique")

        table = tuple(sorted(set(tenants)))
        code = {t: i for i, t in enumerate(table)}
        codes = np.fromiter((code[t] for t in tenants),
                            dtype=np.int64, count=len(tenants))

        with span("store.index_build", n_records=x.shape[0],
                  n_shards=self.n_shards):
            self.router.fit(x)
            assignment = self.router.assign(tenants, x)
            order = np.lexsort((id_arr, assignment))
            x, id_arr, codes = x[order], id_arr[order], codes[order]
            sq_norms = np.einsum("nd,nd->n", x, x)
            if not np.isfinite(sq_norms).all():
                raise RetrievalError("squared vector norms overflow float64")
            shard_ids, starts = np.unique(assignment[order], return_index=True)
            stops = np.append(starts[1:], len(order))
            shards: Dict[int, _Shard] = {
                int(sid): _Shard(vectors=x[lo:hi], tenant_codes=codes[lo:hi],
                                 rows=np.arange(lo, hi),
                                 sq_norms=sq_norms[lo:hi])
                for sid, lo, hi in zip(shard_ids, starts, stops)
            }
        self._shards = shards
        self._ids = id_arr
        self._vectors = x
        self._tenant_codes = codes
        self._tenant_table = table
        return self

    @property
    def n_indexed(self) -> int:
        """Number of indexed records."""
        if self._ids is None:
            raise NotFittedError("ShardedSignatureIndex used before fit")
        return len(self._ids)

    @property
    def shard_sizes(self) -> Dict[int, int]:
        """Records per built (non-empty) shard."""
        if self._shards is None:
            raise NotFittedError("ShardedSignatureIndex used before fit")
        return {sid: len(shard) for sid, shard in sorted(self._shards.items())}

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def query(self, vector: np.ndarray, k: int,
              tenant: Optional[str] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Single-query convenience over :meth:`query_batch`."""
        vector = check_array(vector, name="vector", ndim=1)
        ids, dists = self.query_batch(vector[None, :], k, tenant=tenant)
        return ids[0], dists[0]

    def query_batch(
        self, queries: np.ndarray, k: int, tenant: Optional[str] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched k-NN fan-out: ``(n_queries, k)`` ids and distances.

        Each probed shard contributes a candidate superset of its share
        of the exact top-k (see :meth:`_scan_shard`); the union is
        re-ranked with distances recomputed in the oracle's own
        arithmetic, which makes the final answer bit-identical to a
        global :class:`~repro.retrieval.linear.LinearScanIndex` over the
        same (optionally tenant-filtered) records.
        """
        if self._shards is None or self._vectors is None or self._ids is None:
            raise NotFittedError("ShardedSignatureIndex used before fit")
        q = check_array(queries, name="queries", ndim=2, allow_empty=False)
        if q.shape[1] != self._vectors.shape[1]:
            raise RetrievalError(
                f"queries have {q.shape[1]} dims, index holds "
                f"{self._vectors.shape[1]}-dim vectors"
            )
        k = check_positive_int(k, name="k")
        tenant_code = self._resolve_tenant(tenant)
        n_eligible = self._eligible_count(tenant_code)
        if k > n_eligible:
            scope = "indexed vectors" if tenant is None else (
                f"vectors of tenant {tenant!r}"
            )
            raise RetrievalError(f"k={k} exceeds the {n_eligible} {scope}")

        with span("store.query_batch", n_queries=q.shape[0], k=k,
                  n_shards=self.n_shards) as sp:
            shard_ids = self._shards_to_probe(tenant, tenant_code)
            candidates = self._fan_out(q, k, shard_ids, tenant_code)
            out_ids, out_dists = self._merge(q, k, candidates)
            self.last_shards_probed = len(shard_ids)
            if is_enabled():
                record_counter("store.queries", q.shape[0])
                record_counter("store.shards_probed",
                               len(shard_ids) * q.shape[0])
                record_counter("store.candidates", self.last_candidates)
                record_event("store.query",
                             n_queries=int(q.shape[0]), k=k,
                             shards_probed=int(len(shard_ids)),
                             candidates=int(self.last_candidates))
                sp.set(candidates=self.last_candidates,
                       shards_probed=len(shard_ids))
        return out_ids, out_dists

    # -- helpers --------------------------------------------------------

    def _resolve_tenant(self, tenant: Optional[str]) -> Optional[int]:
        if tenant is None:
            return None
        assert self._tenant_table is not None
        try:
            return self._tenant_table.index(tenant)
        except ValueError:
            raise RetrievalError(
                f"tenant {tenant!r} has no records in this index"
            ) from None

    def _eligible_count(self, tenant_code: Optional[int]) -> int:
        assert self._tenant_codes is not None
        if tenant_code is None:
            return len(self._tenant_codes)
        return int((self._tenant_codes == tenant_code).sum())

    def _shards_to_probe(self, tenant: Optional[str],
                         tenant_code: Optional[int]) -> List[int]:
        assert self._shards is not None
        if (tenant is not None and self.router.mode == "tenant"):
            # A tenant's records all live on its hash shard.
            owner = self.router.shard_of_tenant(tenant)
            return [owner] if owner in self._shards else []
        if tenant_code is None:
            return sorted(self._shards)
        return [sid for sid, shard in sorted(self._shards.items())
                if bool((shard.tenant_codes == tenant_code).any())]

    def _fan_out(self, q: np.ndarray, k: int, shard_ids: List[int],
                 tenant_code: Optional[int]) -> List[List[np.ndarray]]:
        """Per-query lists of candidate row positions in the index's matrix."""
        assert self._shards is not None
        # 8·γ_{d+2} with γ_n = nε/(1 − nε); see _scan_shard.
        n_eps = (q.shape[1] + 2) * np.finfo(np.float64).eps
        scale = 8.0 * n_eps / (1.0 - n_eps)
        q_sq = np.einsum("qd,qd->q", q, q)
        if not np.isfinite(q_sq).all():
            raise RetrievalError("squared query norms overflow float64")
        candidates: List[List[np.ndarray]] = [[] for _ in range(q.shape[0])]
        for sid in shard_ids:
            shard = self._shards[sid]
            rows, vectors, sq_norms = shard.rows, shard.vectors, shard.sq_norms
            if tenant_code is not None:
                mask = shard.tenant_codes == tenant_code
                if not mask.any():
                    continue
                rows, vectors = rows[mask], vectors[mask]
                sq_norms = sq_norms[mask]
            self._scan_shard(q, k, rows, vectors, sq_norms,
                             scale * (q_sq + shard.max_sq), candidates)
        return candidates

    @staticmethod
    def _scan_shard(q: np.ndarray, k: int, rows: np.ndarray,
                    vectors: np.ndarray, sq_norms: np.ndarray,
                    margin: np.ndarray,
                    candidates: List[List[np.ndarray]]) -> None:
        """Append a superset of the shard's exact top-m rows per query.

        ``m = min(k, n)``.  Rows whose kernel score ``e`` is within
        ``margin = 8·γ_{d+2}·(‖q‖² + M)`` of the m-th smallest score ``E``
        are kept; ``M``, the shard's largest ``‖v‖²``, bounds any subset
        too.  Proof (at length in docs/RETRIEVAL.md), with ``u = ε/2``,
        ``t = ‖v − q‖²``, no underflow and finite norms (checked):

        1. Each term of the expansion sees at most d + 2 roundings in any
           summation order, with or without FMA, so ``|e − t| <=
           γ_{d+2}(u)·Σⱼ(|vⱼ| + |qⱼ|)² <= 2γ_{d+2}(u)(‖q‖² + ‖v‖²)``.
        2. The oracle ranks by ``s = fl(√o)``, ``o`` its einsum of squared
           differences, so ``|s² − t| <= γ_{d+4}(u)·t`` and
           ``|e − s²| <= H = 2(γ_{d+2}(u) + γ_{d+4}(u))(‖q‖² + M)``.
        3. The m rows with ``e <= E`` have ``s² <= E + H``; a row of the
           shard's oracle top-m has ``s²`` at most the m-th smallest, so
           ``e <= E + 2H``.  ``8γ_{d+2}(ε) >= 16γ_{d+2}(u)`` exceeds ``2H``
           by ``16u·(‖q‖² + M)``, which covers rounding the test itself.
        4. A global top-k row in this shard has fewer than k rows ahead
           of it, so it is in the shard's oracle top-m and is kept, as
           are exact duplicates, ties and values ``sqrt`` rounds onto the
           m-th distance.
        """
        d2 = squared_distances(vectors, q, x_sq=sq_norms)
        m = min(k, len(rows))
        kth = np.partition(d2, m - 1, axis=0)[m - 1]
        keep = d2 <= kth + margin
        for qi in range(q.shape[0]):
            candidates[qi].append(rows[keep[:, qi]])

    def _merge(self, q: np.ndarray, k: int,
               candidates: List[List[np.ndarray]],
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Re-rank the candidate union in the linear oracle's arithmetic."""
        assert self._vectors is not None and self._ids is not None
        out_ids = np.empty((q.shape[0], k), dtype=np.uint64)
        out_dists = np.empty((q.shape[0], k))
        self.last_candidates = 0
        for qi in range(q.shape[0]):
            rows = np.unique(np.concatenate(candidates[qi]))
            self.last_candidates += len(rows)
            ids = self._ids[rows]
            diff = self._vectors[rows] - q[qi]
            dists = np.sqrt(np.einsum("nd,nd->n", diff, diff))
            top = np.lexsort((ids, dists))[:k]
            out_ids[qi] = ids[top]
            out_dists[qi] = dists[top]
        return out_ids, out_dists
