"""Extended benchmark — iDistance under database churn.

A clinical motion database grows as new trials are captured and shrinks as
old ones are retired.  :class:`IDistanceIndex` absorbs inserts and deletes
online, with no rebuild.  This benchmark runs a churn workload over motion
signatures, timing the whole mixed workload, and then checks that every
probe's ids and distances equal a freshly built linear scan over the
surviving rows, bit for bit.
"""

import numpy as np

from conftest import STRIDE_MS
from repro.core.model import MotionClassifier
from repro.eval.reporting import format_table
from repro.features.combine import WindowFeaturizer
from repro.retrieval.idistance import IDistanceIndex
from repro.retrieval.linear import LinearScanIndex


def test_dynamic_index_churn(hand_dataset, benchmark):
    featurizer = WindowFeaturizer(window_ms=100.0, stride_ms=STRIDE_MS)
    model = MotionClassifier(n_clusters=15, featurizer=featurizer)
    model.fit(hand_dataset, seed=0)
    signatures = model.database_signatures
    n = len(signatures)
    half = n // 2
    rng = np.random.default_rng(0)

    def churn_workload():
        index = IDistanceIndex(n_partitions=8)
        index.fit(signatures[:half])
        id_of_row = {i: i for i in range(half)}
        # Insert the second half while deleting a third of the first half.
        removed = set()
        for row in range(half, n):
            vid = index.insert(signatures[row])
            id_of_row[row] = vid
            if row % 3 == 0:
                victim = int(rng.integers(0, half))
                if victim not in removed:
                    index.remove(id_of_row[victim])
                    removed.add(victim)
        alive_rows = [r for r in range(n) if r not in removed]
        # Serve queries against the final state.
        for q_row in alive_rows[:20]:
            index.query(signatures[q_row], k=5)
        return index, id_of_row, alive_rows

    index, id_of_row, alive_rows = benchmark.pedantic(
        churn_workload, rounds=1, iterations=1)

    # Exactness: ids and distances equal a linear scan over the surviving
    # rows.  Ids ascend with row order, so the oracle's tie order matches.
    alive_ids = np.array([id_of_row[r] for r in alive_rows])
    linear = LinearScanIndex().fit(signatures[alive_rows])
    mismatches = 0
    for probe in range(0, len(alive_rows), 7):
        q = signatures[alive_rows[probe]]
        got_ids, got_d = index.query(q, k=5)
        want_rows, want_d = linear.query(q, k=5)
        if not (np.array_equal(got_ids, alive_ids[want_rows])
                and np.array_equal(got_d, want_d)):
            mismatches += 1
    print()
    print("Extended — iDistance under churn (motion signatures)")
    print(format_table(
        ["metric", "value"],
        [
            ["initial motions", half],
            ["inserted online", n - half],
            ["deleted online", n - len(alive_rows)],
            ["final size", index.n_indexed],
            ["id/distance mismatches vs linear scan", mismatches],
            ["candidates on last query", index.last_candidates],
        ],
    ))
    assert index.n_indexed == len(alive_rows)
    assert mismatches == 0
