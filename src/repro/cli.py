"""Command-line interface.

Nine subcommands cover the library's workflow without writing Python:

``repro-motions build``
    Simulate a capture campaign and save it to disk.
``repro-motions evaluate``
    Train/test-split a saved dataset and report classification metrics for
    one configuration.
``repro-motions sweep``
    Run the paper's Figure 6–9 grid on a saved dataset and print the series.
``repro-motions info``
    Describe the environment (and, optionally, a saved dataset).
``repro-motions profile``
    Profile one synthetic end-to-end run with observability enabled and
    report the per-stage breakdown (see docs/OBSERVABILITY.md).
``repro-motions health``
    Run the model-health check: fit a synthetic model, drive a query
    workload (optionally fault-injected), evaluate drift detectors and SLO
    rules, and exit 1 when critical alerts fire (see
    :mod:`repro.obs.health`).  ``--watch N`` re-runs every N seconds.
``repro-motions store``
    Persistent sharded signature store: ``store ingest`` synthesizes a
    seeded signature population and appends it as CRC-checked segments,
    ``store compact`` merges segments, ``store stats`` reports (and
    optionally CRC-verifies) the store, and ``store query`` runs a
    batched sharded k-NN workload checked against the linear-scan oracle
    (see :mod:`repro.retrieval.store` and docs/RETRIEVAL.md).
``repro-motions lint``
    Run the repo-specific static-analysis rules (see :mod:`repro.lint`).
``repro-motions selftest``
    Run the tier-1 test suite and the lint rules in one shot (the
    make-style "is this checkout healthy?" command).

``build``, ``evaluate`` and ``profile`` accept ``--robust-policy`` to run
the feature pipeline through a degradation policy (see
:mod:`repro.robust`); the default ``off`` keeps the pipeline byte-identical
to the non-robust path.

``build`` and ``evaluate`` additionally accept ``--trace`` (print a
per-stage timing table after the run) and ``--metrics-out PATH`` (write the
``repro.obs/v3`` telemetry payload as JSON).

Example
-------
::

    repro-motions build --study hand --participants 2 --trials 3 -o /tmp/hand
    repro-motions evaluate /tmp/hand --clusters 15 --window-ms 100 --trace
    repro-motions sweep /tmp/hand --clusters 2 5 10 20 40
    repro-motions profile --clusters 8 -o /tmp/profile.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.model import MotionClassifier
from repro.data.protocol import build_dataset, hand_protocol, leg_protocol
from repro.data.serialize import load_dataset, save_dataset
from repro.errors import ReproError
from repro.eval.experiments import SweepResult, run_experiment
from repro.eval.reporting import format_series, format_table
from repro.features.combine import WindowFeaturizer

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-motions",
        description="Motion capture + EMG fuzzy motion classification "
                    "(Pradhan et al., ICDE'07 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace", action="store_true",
                       help="print a per-stage timing table after the run")
        p.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write the repro.obs/v3 telemetry payload as JSON")

    def add_parallel_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n-jobs", type=int, default=1,
                       help="feature-pipeline worker processes (1 = serial, "
                            "-1 = all CPUs); results are byte-identical for "
                            "every setting")
        p.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="content-addressed feature cache directory; "
                            "cached features are byte-identical to "
                            "recomputed ones (default: caching off)")

    def add_robust_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--robust-policy",
                       choices=("off", "strict", "mask", "repair"),
                       default="off",
                       help="degradation policy for faulted streams (see "
                            "repro.robust); 'off' (default) keeps the "
                            "pipeline byte-identical to the non-robust path")

    p_build = sub.add_parser("build", help="simulate and save a capture campaign")
    p_build.add_argument("--study", choices=("hand", "leg"), default="hand")
    p_build.add_argument("--participants", type=int, default=2)
    p_build.add_argument("--trials", type=int, default=3,
                         help="trials per motion class per participant")
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument("-o", "--output", required=True,
                         help="output path stem (writes <stem>.json/.npz)")
    p_build.add_argument("--window-ms", type=float, default=100.0,
                         help="window size used when warming the feature "
                              "cache (only with --cache-dir)")
    p_build.add_argument("--stride-ms", type=float, default=None,
                         help="window stride used when warming the feature "
                              "cache (only with --cache-dir)")
    add_parallel_flags(p_build)
    add_robust_flag(p_build)
    add_obs_flags(p_build)

    p_eval = sub.add_parser("evaluate", help="evaluate one configuration")
    p_eval.add_argument("dataset", help="dataset path stem")
    p_eval.add_argument("--clusters", type=int, default=15)
    p_eval.add_argument("--window-ms", type=float, default=100.0)
    p_eval.add_argument("--stride-ms", type=float, default=None)
    p_eval.add_argument("--k", type=int, default=5)
    p_eval.add_argument("--test-fraction", type=float, default=0.25)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--scaler", choices=("zscore", "minmax", "none"),
                        default="zscore")
    p_eval.add_argument("--clusterer", choices=("fcm", "kmeans"), default="fcm")
    add_parallel_flags(p_eval)
    add_robust_flag(p_eval)
    add_obs_flags(p_eval)

    p_sweep = sub.add_parser("sweep", help="run the paper's figure grid")
    p_sweep.add_argument("dataset", help="dataset path stem")
    p_sweep.add_argument("--windows-ms", type=float, nargs="+",
                         default=[50.0, 100.0, 150.0, 200.0])
    p_sweep.add_argument("--clusters", type=int, nargs="+",
                         default=[2, 5, 10, 15, 20, 25, 30, 40])
    p_sweep.add_argument("--stride-ms", type=float, default=25.0)
    p_sweep.add_argument("--k", type=int, default=5)
    p_sweep.add_argument("--test-fraction", type=float, default=0.25)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--csv", metavar="PREFIX", default=None,
                         help="also write <PREFIX>_misclassification.csv and "
                              "<PREFIX>_knn.csv in long format")
    add_parallel_flags(p_sweep)

    p_info = sub.add_parser(
        "info", help="describe the environment and (optionally) a dataset"
    )
    p_info.add_argument("dataset", nargs="?", default=None,
                        help="dataset path stem (omit for environment info only)")

    p_prof = sub.add_parser(
        "profile",
        help="profile a synthetic end-to-end run (observability enabled)",
    )
    p_prof.add_argument("--study", choices=("hand", "leg"), default="hand")
    p_prof.add_argument("--participants", type=int, default=1)
    p_prof.add_argument("--trials", type=int, default=2,
                        help="trials per motion class per participant")
    p_prof.add_argument("--clusters", type=int, default=8)
    p_prof.add_argument("--window-ms", type=float, default=100.0)
    p_prof.add_argument("--stride-ms", type=float, default=None)
    p_prof.add_argument("--k", type=int, default=5)
    p_prof.add_argument("--test-fraction", type=float, default=0.25)
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.add_argument("-o", "--output", default="profile.json",
                        help="JSON payload output path (default: profile.json)")
    p_prof.add_argument("--max-spans", type=int, default=None,
                        help="span ring-buffer capacity (0 = aggregates "
                             "only; default: the repro.obs default); the "
                             "stage table warns when records were dropped")
    add_parallel_flags(p_prof)
    add_robust_flag(p_prof)

    p_health = sub.add_parser(
        "health",
        help="model-health check: drift detectors + SLO rules "
             "(exits 1 on firing critical alerts)",
    )
    p_health.add_argument("--study", choices=("hand", "leg"), default="hand")
    p_health.add_argument("--participants", type=int, default=1)
    p_health.add_argument("--trials", type=int, default=2,
                          help="trials per motion class per participant")
    p_health.add_argument("--clusters", type=int, default=8)
    p_health.add_argument("--window-ms", type=float, default=100.0)
    p_health.add_argument("--stride-ms", type=float, default=None)
    p_health.add_argument("--k", type=int, default=1)
    p_health.add_argument("--test-fraction", type=float, default=0.25)
    p_health.add_argument("--seed", type=int, default=0)
    p_health.add_argument("--rules", metavar="FILE", default=None,
                          help="SLO rules file, one "
                               "'<metric> <op> <value> [severity=...] "
                               "[for=N]' per line (default: the stock set)")
    p_health.add_argument("--alerts-out", metavar="PATH", default=None,
                          help="append fired alerts to PATH as JSONL")
    p_health.add_argument("--drift-fault",
                          choices=("none", "emg-dropout", "emg-saturation"),
                          default="none",
                          help="inject a fault into every query record to "
                               "model a drifted deployment (default: none)")
    p_health.add_argument("--repeat-queries", type=int, default=0,
                          help="force at least this many passes over the "
                               "query workload (default: enough to warm "
                               "every detector)")
    p_health.add_argument("--detector-window", type=int, default=32,
                          help="drift detector sliding-window length "
                               "(queries; default: 32)")
    p_health.add_argument("--detector-min-samples", type=int, default=4,
                          help="observations before a detector leaves "
                               "warm-up (default: 4)")
    p_health.add_argument("--watch", type=float, metavar="SECONDS",
                          default=None,
                          help="re-run the check every SECONDS seconds "
                               "until interrupted")
    p_health.add_argument("--ticks", type=int, default=None,
                          help="with --watch: stop after N checks "
                               "(default: run until interrupted)")
    add_robust_flag(p_health)

    p_store = sub.add_parser(
        "store",
        help="persistent sharded signature store "
             "(ingest/compact/stats/query)",
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)

    def add_store_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--store", metavar="DIR", required=True,
                       help="signature store directory")

    s_ingest = store_sub.add_parser(
        "ingest",
        help="synthesize a seeded signature population and append it "
             "as segments",
    )
    add_store_flag(s_ingest)
    s_ingest.add_argument("--signatures", type=int, default=10000,
                          help="population size to generate "
                               "(default: 10000)")
    s_ingest.add_argument("--tenants", type=int, default=16,
                          help="synthetic tenant count (default: 16)")
    s_ingest.add_argument("--batch-size", type=int, default=10000,
                          help="records per ingested segment "
                               "(default: 10000)")
    s_ingest.add_argument("--jitter", type=float, default=0.02,
                          help="perturbation stddev in membership units "
                               "(default: 0.02)")
    s_ingest.add_argument("--base", choices=("campaign", "random"),
                          default="campaign",
                          help="base signatures: 'campaign' fits a "
                               "classifier on a simulated capture "
                               "campaign; 'random' draws structured "
                               "random signatures (fast)")
    s_ingest.add_argument("--study", choices=("hand", "leg"),
                          default="hand")
    s_ingest.add_argument("--participants", type=int, default=1)
    s_ingest.add_argument("--trials", type=int, default=2,
                          help="trials per motion class per participant")
    s_ingest.add_argument("--clusters", type=int, default=15)
    s_ingest.add_argument("--window-ms", type=float, default=100.0)
    s_ingest.add_argument("--seed", type=int, default=0)

    s_compact = store_sub.add_parser(
        "compact", help="merge all segments into one"
    )
    add_store_flag(s_compact)

    s_stats = store_sub.add_parser(
        "stats", help="report (and optionally CRC-verify) the store"
    )
    add_store_flag(s_stats)
    s_stats.add_argument("--verify", action="store_true",
                         help="re-check every segment and record CRC")

    s_query = store_sub.add_parser(
        "query",
        help="run a batched sharded k-NN workload against the store "
             "(checked against the linear-scan oracle)",
    )
    add_store_flag(s_query)
    s_query.add_argument("--k", type=int, default=5)
    s_query.add_argument("--queries", type=int, default=64,
                         help="batch size of the query workload "
                              "(default: 64)")
    s_query.add_argument("--shards", type=int, default=4,
                         help="shard count (default: 4)")
    s_query.add_argument("--mode", choices=("tenant", "region"),
                         default="tenant",
                         help="shard routing mode (default: tenant)")
    s_query.add_argument("--tenant", default=None,
                         help="restrict the search to one tenant")
    s_query.add_argument("--seed", type=int, default=0)
    s_query.add_argument("--skip-oracle", action="store_true",
                         help="skip the linear-scan oracle comparison")

    p_lint = sub.add_parser("lint", help="run the repo's static-analysis rules")
    p_lint.add_argument("paths", nargs="*",
                        help="files or directories to lint "
                             "(default: the installed repro package)")
    p_lint.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    p_lint.add_argument("--select", nargs="+", metavar="RULE", default=None,
                        help="run only these rules (e.g. R1 R9)")
    p_lint.add_argument("--strict", action="store_true",
                        help="run the whole-program dataflow pass "
                             "(rules R7-R12) as well")

    p_self = sub.add_parser(
        "selftest",
        help="run the strict lint pass and the tier-1 test suite in one shot",
    )
    p_self.add_argument("--tests", metavar="DIR", default="tests",
                        help="test directory passed to pytest "
                             "(default: ./tests)")
    p_self.add_argument("--skip-tests", action="store_true",
                        help="run only the lint half (no pytest)")
    return parser


def _cmd_build(args) -> int:
    proto = hand_protocol() if args.study == "hand" else leg_protocol()
    dataset = build_dataset(
        proto,
        n_participants=args.participants,
        trials_per_motion=args.trials,
        seed=args.seed,
    )
    path = save_dataset(dataset, args.output)
    print(dataset.summary())
    print(f"saved to {path.with_suffix('')}.{{json,npz}}")
    if args.cache_dir is not None:
        from repro.parallel.cache import FeatureCache
        from repro.parallel.runner import featurize_records

        featurizer = WindowFeaturizer(window_ms=args.window_ms,
                                      stride_ms=args.stride_ms)
        if args.robust_policy != "off":
            from repro.robust.featurize import RobustFeaturizer

            featurizer = RobustFeaturizer(featurizer, args.robust_policy)
        cache = FeatureCache(args.cache_dir)
        featurize_records(featurizer, dataset.records, n_jobs=args.n_jobs,
                          cache=cache)
        stats = cache.stats
        print(f"warmed feature cache in {args.cache_dir}: "
              f"{len(dataset)} motions, {stats.hits} hits, "
              f"{stats.stores} new entries "
              f"(window {args.window_ms:g} ms, stride "
              f"{'window' if args.stride_ms is None else f'{args.stride_ms:g} ms'})")
    return 0


def _cmd_evaluate(args) -> int:
    dataset = load_dataset(args.dataset)
    train, test = dataset.train_test_split(args.test_fraction, seed=args.seed)
    featurizer = WindowFeaturizer(window_ms=args.window_ms,
                                  stride_ms=args.stride_ms)
    classifier = MotionClassifier(
        n_clusters=args.clusters,
        featurizer=featurizer,
        scaler_mode=args.scaler,
        clusterer=args.clusterer,
        n_jobs=args.n_jobs,
        cache_dir=args.cache_dir,
        robust_policy=args.robust_policy,
    )
    result = run_experiment(train, test, k=args.k, seed=args.seed,
                            classifier=classifier)
    print(dataset.summary())
    print(format_table(
        ["metric", "value"],
        [
            ["database motions", len(train)],
            ["queries", result.n_queries],
            ["window size", f"{result.window_ms:g} ms"],
            ["clusters (c)", result.n_clusters],
            ["misclassification", f"{result.misclassification_pct:.1f} %"],
            [f"kNN classified (k={result.k})",
             f"{result.knn_classified_pct:.1f} %"],
        ],
    ))
    labels, matrix = result.confusion()
    rows = [[labels[i]] + [int(v) for v in matrix[i]] for i in range(len(labels))]
    print(format_table(["true \\ pred"] + [l[:7] for l in labels], rows))
    return 0


def _cmd_sweep(args) -> int:
    dataset = load_dataset(args.dataset)
    train, test = dataset.train_test_split(args.test_fraction, seed=args.seed)
    # The grid is run explicitly (rather than via eval.experiments.sweep)
    # so the stride option applies to every window size.
    results = []
    for window_ms in args.windows_ms:
        for n_clusters in args.clusters:
            featurizer = WindowFeaturizer(window_ms=window_ms,
                                          stride_ms=args.stride_ms)
            classifier = MotionClassifier(n_clusters=n_clusters,
                                          featurizer=featurizer,
                                          n_jobs=args.n_jobs,
                                          cache_dir=args.cache_dir)
            results.append(run_experiment(train, test, k=args.k,
                                          seed=args.seed,
                                          classifier=classifier))
    sweep_result = SweepResult(results=tuple(results))
    print(format_series(
        "Misclassification rate",
        sweep_result.series("misclassification_pct"),
        y_label="misclassified %",
    ))
    print()
    print(format_series(
        f"kNN classified percent (k={args.k})",
        sweep_result.series("knn_classified_pct"),
        y_label="kNN classified %",
    ))
    if args.csv:
        from pathlib import Path

        from repro.eval.reporting import series_to_csv

        for metric, suffix in (
            ("misclassification_pct", "misclassification"),
            ("knn_classified_pct", "knn"),
        ):
            path = Path(f"{args.csv}_{suffix}.csv")
            path.write_text(
                series_to_csv(sweep_result.series(metric), value_name=suffix)
            )
            print(f"wrote {path}")
    return 0


def _base_signatures(args):
    """Base (vectors, labels) the synthetic population is inflated from."""
    import numpy as np

    if args.base == "campaign":
        proto = hand_protocol() if args.study == "hand" else leg_protocol()
        dataset = build_dataset(
            proto,
            n_participants=args.participants,
            trials_per_motion=args.trials,
            seed=args.seed,
        )
        featurizer = WindowFeaturizer(window_ms=args.window_ms)
        classifier = MotionClassifier(
            n_clusters=args.clusters, featurizer=featurizer
        ).fit(dataset, seed=args.seed)
        return classifier.database_signatures, classifier.database_labels
    # Structured random signatures: sorted (min, max) pairs in [0, 1]
    # with a seeded sparsity pattern, one label per base cluster shape.
    from repro.utils.rng import as_generator

    rng = as_generator(args.seed)
    n_base, c = 64, args.clusters
    pairs = np.sort(rng.uniform(0.0, 1.0, size=(n_base, c, 2)), axis=2)
    occupied = rng.uniform(size=(n_base, c)) < 0.6
    pairs[~occupied] = 0.0
    labels = [f"class-{i % 8}" for i in range(n_base)]
    return pairs.reshape(n_base, 2 * c), labels


def _cmd_store(args) -> int:
    from repro.retrieval.store import SignatureStore

    store = SignatureStore(args.store)
    if args.store_command == "ingest":
        from repro.data.population import synthesize_population

        base_vectors, base_labels = _base_signatures(args)
        population = synthesize_population(
            base_vectors, base_labels,
            n_signatures=args.signatures,
            n_tenants=args.tenants,
            jitter=args.jitter,
            seed=args.seed,
        )
        n_written = 0
        n_segments = 0
        for start in range(0, len(population), args.batch_size):
            stop = min(start + args.batch_size, len(population))
            result = store.ingest(
                population.vectors[start:stop],
                list(population.labels[start:stop]),
                list(population.tenants[start:stop]),
            )
            n_written += result.n_written
            n_segments += 1 if result.segment else 0
        stats = store.stats()
        print(f"ingested {n_written} signatures "
              f"({population.n_tenants} tenants, base: {args.base}) "
              f"into {n_segments} new segment(s)")
        print(f"store {args.store}: {stats.n_records} records in "
              f"{stats.n_segments} segments, dim {stats.dim}, "
              f"{stats.n_bytes} bytes")
        return 0
    if args.store_command == "compact":
        result = store.compact()
        print(f"compacted {result.n_segments_before} segment(s) -> "
              f"{result.n_segments_after} ({result.n_records} records, "
              f"{result.bytes_reclaimed} bytes reclaimed)")
        return 0
    if args.store_command == "stats":
        stats = store.stats()
        print(format_table(["metric", "value"], [
            ["segments", stats.n_segments],
            ["records", stats.n_records],
            ["dim", stats.dim],
            ["tenants", stats.n_tenants],
            ["labels", stats.n_labels],
            ["bytes", stats.n_bytes],
            ["compactions", stats.n_compactions],
            ["next id", stats.next_id],
        ]))
        if args.verify:
            report = store.verify()
            if report.ok:
                print(f"verify: all {report.n_records} records across "
                      f"{report.n_segments} segment(s) passed their CRC "
                      f"checks")
            else:
                for error in report.errors:
                    print(f"verify: {error}", file=sys.stderr)
                return 1
        return 0
    # store query
    import numpy as np

    from repro.obs.config import capture
    from repro.obs.export import collect_payload
    from repro.retrieval.linear import LinearScanIndex
    from repro.retrieval.shard import ShardedSignatureIndex
    from repro.utils.rng import as_generator

    contents = store.records()
    if len(contents) == 0:
        print("error: the store is empty; run 'store ingest' first",
              file=sys.stderr)
        return 2
    rng = as_generator(args.seed)
    rows = rng.integers(0, len(contents), size=args.queries)
    queries = np.clip(
        contents.vectors[rows]
        + rng.normal(0.0, 0.01, size=(args.queries,
                                      contents.vectors.shape[1])),
        0.0, 1.0,
    )
    with capture() as state:
        index = ShardedSignatureIndex(
            n_shards=args.shards, mode=args.mode, seed=args.seed,
        ).fit_contents(contents)
        ids, dists = index.query_batch(queries, args.k, tenant=args.tenant)
    payload = collect_payload(state, meta={"command": "store query"})
    stages = payload["stages"]
    build_s = stages.get("store.index_build", {}).get("total_s", 0.0)
    query_s = stages.get("store.query_batch", {}).get("total_s", 0.0)
    qps = args.queries / query_s if query_s > 0 else float("inf")
    print(f"queried {args.queries} x k={args.k} over {len(contents)} "
          f"records in {index.last_shards_probed} shard(s) "
          f"[{args.mode}]: index build {build_s:.3f} s, "
          f"batch {query_s:.3f} s ({qps:.0f} q/s), "
          f"{index.last_candidates} candidates merged")
    print(f"nearest distances: min {dists.min():.4f}, "
          f"median {float(np.median(dists)):.4f}, max {dists.max():.4f}")
    if args.skip_oracle:
        return 0
    if args.tenant is not None:
        mask = np.fromiter((t == args.tenant for t in contents.tenants),
                           dtype=bool, count=len(contents))
        oracle_ids = contents.ids[mask]
        oracle = LinearScanIndex().fit(contents.vectors[mask])
    else:
        oracle_ids = contents.ids
        oracle = LinearScanIndex().fit(contents.vectors)
    mismatches = 0
    for qi in range(args.queries):
        li, ld = oracle.query(queries[qi], args.k)
        if not (np.array_equal(oracle_ids[li], ids[qi])
                and np.array_equal(ld, dists[qi])):
            mismatches += 1
    if mismatches:
        print(f"oracle check FAILED: {mismatches}/{args.queries} queries "
              f"differ from the linear-scan oracle", file=sys.stderr)
        return 1
    print(f"oracle check OK: all {args.queries} queries bit-identical to "
          f"the linear-scan oracle")
    return 0


def _cmd_lint(args) -> int:
    from repro.lint.cli import run as lint_run

    return lint_run(
        args.paths,
        fmt=args.format,
        select=args.select,
        strict=args.strict,
    )


def _cmd_selftest(args) -> int:
    """Strict lint pass + tier-1 suite, one command, one composite exit code."""
    import importlib.util
    import subprocess
    from pathlib import Path

    from repro.lint.cli import run as lint_run

    print("== lint (strict: rules R1-R12 over the installed repro package) ==")
    lint_failed = lint_run([], fmt="text", select=None, strict=True) != 0
    tests_failed = False
    if not args.skip_tests:
        tests_dir = Path(args.tests)
        if not tests_dir.is_dir():
            print(f"error: test directory {tests_dir} not found "
                  "(run from the repo root or pass --tests)", file=sys.stderr)
            return 2
        if importlib.util.find_spec("pytest") is None:
            print("error: pytest is not installed; install the [test] extra",
                  file=sys.stderr)
            return 2
        print()
        print(f"== tier-1 tests ({tests_dir}) ==")
        tests_failed = subprocess.call(
            [sys.executable, "-m", "pytest", "-q", "-m", "tier1",
             str(tests_dir)]
        ) != 0
    print()
    verdict = []
    verdict.append("lint FAILED" if lint_failed else "lint OK")
    if not args.skip_tests:
        verdict.append("tier-1 FAILED" if tests_failed else "tier-1 OK")
    print("selftest:", ", ".join(verdict))
    return 1 if (lint_failed or tests_failed) else 0


#: Optional extras probed by ``repro-motions info`` (import name, extra).
_OPTIONAL_EXTRAS = (
    ("pytest", "test"),
    ("pytest_benchmark", "test"),
    ("hypothesis", "test"),
    ("scipy", "test"),
    ("ruff", "lint"),
)


def _cmd_info(args) -> int:
    import importlib.util

    from repro import __version__
    from repro.obs.config import current_state

    print(f"repro-motions {__version__} (python {sys.version.split()[0]})")
    rows = []
    for module, extra in _OPTIONAL_EXTRAS:
        found = importlib.util.find_spec(module) is not None
        rows.append([module, extra, "installed" if found else "missing"])
    print(format_table(["optional module", "extra", "status"], rows))
    state = current_state()
    print(f"observability: {'enabled' if state.enabled else 'disabled'} "
          f"(spans collected: {len(state.collector.records())})")
    if args.dataset is not None:
        dataset = load_dataset(args.dataset)
        print()
        print(dataset.summary())
        rows = [[label, count]
                for label, count in sorted(dataset.counts().items())]
        print(format_table(["motion class", "trials"], rows))
    return 0


def _cmd_profile(args) -> int:
    from repro.obs.export import format_stage_table, write_json
    from repro.obs.profile import run_profile

    payload = run_profile(
        study=args.study,
        participants=args.participants,
        trials=args.trials,
        clusters=args.clusters,
        window_ms=args.window_ms,
        stride_ms=args.stride_ms,
        k=args.k,
        test_fraction=args.test_fraction,
        seed=args.seed,
        n_jobs=args.n_jobs,
        cache_dir=args.cache_dir,
        robust_policy=args.robust_policy,
        max_spans=args.max_spans,
    )
    meta = payload["meta"]
    print(f"profiled {args.study} study: {meta['n_train']} database motions, "
          f"{meta['n_queries']} queries, c={meta['n_clusters']}, "
          f"window {meta['window_ms']:g} ms")
    print()
    print(format_stage_table(payload["stages"],
                             spans_dropped=payload["spans_dropped"]))
    objective = payload["series"].get("fcm.objective", [])
    shift = payload["series"].get("fcm.membership_shift", [])
    if objective:
        reasons = sorted(
            key.rsplit(".", 1)[-1]
            for key in payload["counters"]
            if key.startswith("fcm.converged.")
        )
        print()
        line = (f"FCM: {len(objective)} iterations "
                f"(stopped by: {', '.join(reasons) or 'unknown'}), "
                f"objective {objective[0]:.6g} -> {objective[-1]:.6g}")
        if shift:
            line += f", final membership shift {shift[-1]:.3g}"
        print(line)
    path = write_json(args.output, payload)
    print(f"wrote {path}")
    return 0


def _cmd_health(args) -> int:
    import time
    from pathlib import Path

    from repro.obs.health import (
        JsonlSink,
        LogSink,
        format_health_report,
        parse_rules,
        run_health_check,
    )

    rules = None
    if args.rules is not None:
        rules = parse_rules(Path(args.rules).read_text(encoding="utf-8"))
    sinks = [LogSink()]
    if args.alerts_out is not None:
        sinks.append(JsonlSink(args.alerts_out))

    def one_check() -> int:
        result = run_health_check(
            study=args.study,
            participants=args.participants,
            trials=args.trials,
            clusters=args.clusters,
            window_ms=args.window_ms,
            stride_ms=args.stride_ms,
            k=args.k,
            test_fraction=args.test_fraction,
            seed=args.seed,
            robust_policy=args.robust_policy,
            drift_fault=args.drift_fault,
            repeat_queries=args.repeat_queries,
            rules=rules,
            alert_sinks=sinks,
            detector_window=args.detector_window,
            detector_min_samples=args.detector_min_samples,
        )
        print(format_health_report(result))
        if args.alerts_out is not None and result.alerts:
            print(f"appended {len(result.alerts)} alert(s) to "
                  f"{args.alerts_out}")
        return 1 if result.critical_firing else 0

    if args.watch is None:
        return one_check()
    ticks = 0
    code = 0
    while True:
        code = one_check()
        ticks += 1
        if args.ticks is not None and ticks >= args.ticks:
            return code
        print(f"-- watch: next check in {args.watch:g} s "
              f"(tick {ticks}) --")
        time.sleep(args.watch)


_COMMANDS = {
    "build": _cmd_build,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "info": _cmd_info,
    "profile": _cmd_profile,
    "health": _cmd_health,
    "store": _cmd_store,
    "lint": _cmd_lint,
    "selftest": _cmd_selftest,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    trace = bool(getattr(args, "trace", False))
    metrics_out = getattr(args, "metrics_out", None)
    try:
        if not (trace or metrics_out):
            return _COMMANDS[args.command](args)
        from repro.obs.config import capture
        from repro.obs.export import (
            collect_payload,
            format_stage_table,
            write_json,
        )

        with capture() as state:
            code = _COMMANDS[args.command](args)
        payload = collect_payload(state, meta={"command": args.command})
        if trace:
            print()
            print(format_stage_table(payload["stages"],
                                     spans_dropped=payload["spans_dropped"]))
        if metrics_out:
            path = write_json(metrics_out, payload)
            print(f"wrote metrics to {path}")
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
