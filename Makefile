# Convenience targets mirroring the CI pipeline (.github/workflows/ci.yml).
# Everything runs against the in-tree sources via PYTHONPATH=src so no
# install step is needed.

PY ?= python
PYTHONPATH := src

.PHONY: test lint lint-strict selftest health examples bench-lint sweep-guard featurize-guard store-guard perfbench-tests perfbench-check perfbench-trace

test:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m pytest tests/ -q

lint:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m repro.lint src/repro

lint-strict:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m repro.lint src/repro --strict

selftest:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m repro.cli selftest

health:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m repro.cli health --clusters 4 --seed 0 --openmetrics-out health.om

# Every example script; the first one that exits non-zero fails the target.
examples:
	for f in examples/*.py; do echo "== $$f"; PYTHONPATH=$(PYTHONPATH) $(PY) $$f || exit 1; done

bench-lint:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m pytest benchmarks/test_lint_dataflow.py -q

sweep-guard:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m pytest benchmarks/test_sweep_cache_current.py -q

featurize-guard:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m pytest tests/features \
		tests/properties/test_eq3_band_properties.py \
		tests/properties/test_padded_window_properties.py \
		benchmarks/test_batched_featurize.py -q

store-guard:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m pytest tests/retrieval tests/data/test_population.py \
		tests/properties/test_store_properties.py tests/properties/test_idistance_properties.py \
		benchmarks/test_store_scale.py benchmarks/test_dynamic_index.py \
		benchmarks/test_ablation_idistance.py -q

perfbench-tests:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m pytest perfbench/tests -q

perfbench-check:
	PYTHONPATH=$(PYTHONPATH) $(PY) perfbench/run.py --workload all --seed 0 --seconds 1

perfbench-trace:
	PYTHONPATH=$(PYTHONPATH) $(PY) perfbench/run.py --workload all --seed 0 --seconds 1 --trace 1
