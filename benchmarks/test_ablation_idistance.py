"""Ablation — iDistance index versus the paper's linear scan.

Section 4: "For fast searching, our extracted feature vectors can be
applied to any indexing technique to prune irrelevant motions", citing
iDistance (Yu et al., VLDB'01) in related work.  This benchmark indexes the
fitted database signatures with both backends, verifies the retrieved
neighbour ids and distances are bit-identical for every test query, and
reports iDistance's candidate-pruning ratio.
"""

import numpy as np

from conftest import STRIDE_MS
from repro.core.model import MotionClassifier
from repro.eval.reporting import format_table
from repro.features.combine import WindowFeaturizer
from repro.retrieval.idistance import IDistanceIndex
from repro.retrieval.linear import LinearScanIndex


def test_ablation_idistance(hand_split, benchmark):
    train, test = hand_split
    featurizer = WindowFeaturizer(window_ms=100.0, stride_ms=STRIDE_MS)
    model = MotionClassifier(n_clusters=15, featurizer=featurizer)
    model.fit(train, seed=0)
    signatures = model.database_signatures
    queries = [model.signature(record).vector for record in test]

    linear = LinearScanIndex().fit(signatures)
    idist = IDistanceIndex(n_partitions=8).fit(signatures)

    def query_both():
        examined = 0
        for q in queries:
            li, ld = linear.query(q, k=5)
            ii, idd = idist.query(q, k=5)
            assert np.array_equal(li, ii)
            assert np.array_equal(ld, idd)
            examined += idist.last_candidates
        return examined

    examined = benchmark.pedantic(query_both, rounds=1, iterations=1)

    n = len(signatures)
    avg_candidates = examined / len(queries)
    pruned_pct = 100.0 * (1.0 - avg_candidates / n)
    print()
    print("Ablation — iDistance vs linear scan on motion signatures")
    print(format_table(
        ["metric", "value"],
        [
            ["database motions", n],
            ["queries", len(queries)],
            ["avg candidates examined (iDistance)", f"{avg_candidates:.1f}"],
            ["candidates pruned", f"{pruned_pct:.1f} %"],
            ["results identical to linear scan", "yes"],
        ],
    ))

    # Exactness was asserted inside query_both; now the pruning claim: the
    # index must skip a meaningful share of the database on clustered
    # signature data.
    assert avg_candidates < n
    assert pruned_pct > 10.0
