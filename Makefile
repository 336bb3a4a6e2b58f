# Convenience targets mirroring the CI pipeline (.github/workflows/ci.yml).
# Everything runs against the in-tree sources via PYTHONPATH=src so no
# install step is needed.

PY ?= python
PYTHONPATH := src

.PHONY: test lint lint-strict lint-changed selftest health bench-lint sweep-guard store-guard perfbench-tests perfbench-check clean-lint-cache

test:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m pytest tests/ -q

lint:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m repro.lint src/repro

lint-strict:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m repro.lint src/repro --strict --cache .lint-cache.json

lint-changed:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m repro.lint src/repro --changed

selftest:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m repro.cli selftest --lint-cache .lint-cache.json

health:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m repro.cli health --clusters 4 --seed 0 --openmetrics-out health.om

bench-lint:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m pytest benchmarks/test_lint_dataflow.py -q

sweep-guard:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m pytest benchmarks/test_sweep_cache_current.py -q

store-guard:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m pytest tests/retrieval tests/data/test_population.py \
		tests/properties/test_store_properties.py tests/properties/test_idistance_properties.py \
		benchmarks/test_store_scale.py benchmarks/test_dynamic_index.py \
		benchmarks/test_ablation_idistance.py -q

perfbench-tests:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m pytest perfbench/tests -q

perfbench-check:
	PYTHONPATH=$(PYTHONPATH) $(PY) perfbench/run.py --workload all --seed 0 --seconds 1

clean-lint-cache:
	rm -f .lint-cache.json
