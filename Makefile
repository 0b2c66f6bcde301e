# Development gates. `make check` is the one-stop pre-commit target.

PYTHON ?= python
export PYTHONPATH := $(CURDIR)/src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check test lint lint-cold docstrings docs bench bench-quick \
	perfbench perfbench-test

check: test lint

test:
	$(PYTHON) -m pytest -x -q

# repro-lint: AST-based invariant analyzer (determinism, numerical
# safety, error contracts, API hygiene, whole-program dataflow —
# including the docstring and docs gates that used to be separate
# scripts).  Zero unsuppressed findings is the bar; see
# docs/static-analysis.md.  Incremental by default (per-module
# summaries cached under .repro-lint-cache/); `lint-cold` forces a
# full from-scratch analysis with guaranteed-identical findings.
lint:
	$(PYTHON) -m tools.analysis

lint-cold:
	$(PYTHON) -m tools.analysis --no-cache

# Deprecated: kept as thin wrappers over `tools.analysis` for one
# release.  `make check` runs the full analyzer via `lint` instead.
docstrings:
	$(PYTHON) tools/check_docstrings.py

docs:
	$(PYTHON) tools/check_docs.py

# Not part of `check` (runs a few minutes): the sequential-vs-batched
# campaign benchmark (BENCH_sim.json), the model-building fast-path
# benchmark (BENCH_train.json), the columnar trace-engine benchmark
# (BENCH_trace.json, baseline arm from tests/oracles/), the supervised-campaign survival/resume
# benchmark (BENCH_resume.json), the run-record overhead benchmark
# (BENCH_observability.json), the incremental-lint benchmark
# (BENCH_lint.json), and the signal-engine benchmark
# (BENCH_signal.json) under benchmarks/results/.
bench:
	cd benchmarks && $(PYTHON) -m pytest test_perf_campaign.py \
		test_perf_training.py test_perf_trace.py \
		test_perf_signal.py test_robustness_resume.py \
		test_perf_observability.py test_perf_lint.py -x -q

# Tiny-size smoke runs of the training, trace, signal, resume, and
# observability benchmarks (seconds, not minutes); they write
# BENCH_*.quick.json so the committed full-size artifacts are never
# clobbered.
bench-quick:
	cd benchmarks && REPRO_BENCH_QUICK=1 $(PYTHON) -m pytest \
		test_perf_training.py test_perf_trace.py \
		test_perf_signal.py test_robustness_resume.py \
		test_perf_observability.py test_perf_lint.py -x -q

# The end-to-end, layer-attributed benchmark (perfbench/README.md): the
# end-to-end metrics of all three workloads, then the per-layer
# breakdowns of all three (Fig. 8 accuracy, the reference-capture
# campaign and the simulated TVLA run), 24 s each on input set 0
# (re-check a claimed gain on the held-out set: --seed 3).
perfbench:
	for workload in fig8 campaign tvla-sim; do \
		python3 perfbench/run.py --workload $$workload --seed 0 \
			--seconds 24 --trace 0 || exit 1; \
	done
	for workload in fig8 campaign tvla-sim; do \
		python3 perfbench/run.py --workload $$workload --seed 0 \
			--seconds 24 --trace 1 || exit 1; \
	done

# The benchmark harness's own tests.
perfbench-test:
	python3 -m pytest perfbench -q
