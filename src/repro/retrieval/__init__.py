"""Similarity search over motion signatures.

Section 4 of the paper: "We can use any searching technique like linear
search to get the nearest neighbors and to classify the query motion. ...
For fast searching, our extracted feature vectors can be applied to any
indexing technique to prune irrelevant motions."

* :mod:`repro.retrieval.linear` — exact linear-scan k-NN (what the paper
  uses);
* :mod:`repro.retrieval.idistance` — the iDistance index (Yu et al.,
  VLDB'01, the paper's reference [14]) as the "any indexing technique",
  with online inserts and deletes; bit-identical to the linear scan while
  pruning most candidates;
* :mod:`repro.retrieval.knn` — k-NN voting and retrieval-quality helpers;
* :mod:`repro.retrieval.store` — the persistent, partitioned signature
  store (CRC-checked append-only segments + atomic JSON manifest);
* :mod:`repro.retrieval.shard` — tenant/cluster-region sharding with
  batched k-NN fan-out, bit-identical to a global linear scan.
"""

from repro.retrieval.linear import LinearScanIndex
from repro.retrieval.idistance import IDistanceIndex
from repro.retrieval.knn import NearestNeighborIndex, knn_vote
from repro.retrieval.store import (
    CompactionResult,
    IngestResult,
    SegmentScan,
    SignatureStore,
    StoreContents,
    StoreStats,
    VerifyReport,
    scan_segment,
)
from repro.retrieval.shard import ShardRouter, ShardedSignatureIndex, tenant_shard

__all__ = [
    "LinearScanIndex",
    "IDistanceIndex",
    "NearestNeighborIndex",
    "knn_vote",
    "SignatureStore",
    "StoreContents",
    "StoreStats",
    "IngestResult",
    "CompactionResult",
    "VerifyReport",
    "SegmentScan",
    "scan_segment",
    "ShardRouter",
    "ShardedSignatureIndex",
    "tenant_shard",
]
