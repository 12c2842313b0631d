.PHONY: test test-async test-faults test-mvcc test-obs test-columnar test-parallel bench bench-suite bench-smoke ci

# Tier-1 verification: the full unit + benchmark test suite.
test:
	python -m pytest -x -q

# The async / pipelined client-path suites on their own (fast feedback).
test-async:
	python -m pytest tests/test_aio.py tests/test_pipeline.py \
		tests/test_param_slots.py -q

# The robustness suites (WAL/recovery, transactions, fault injection) with a
# widened seed sweep: FAULT_SEEDS adds extra seeds to every seed-parametrized
# fault test.
test-faults:
	FAULT_SEEDS="21 42 99 1234" python -m pytest tests/test_faults.py \
		tests/test_wal.py tests/test_transactions.py -q

# The concurrency suites (MVCC snapshot isolation, admission control, the
# open-loop load generator) under the same widened seed sweep: FAULT_SEEDS
# feeds the serial-equivalence and loadgen seed-parametrized tests.
test-mvcc:
	FAULT_SEEDS="21 42 99 1234" python -m pytest tests/test_mvcc.py \
		tests/test_admission.py -q

# The observability suites: tracing/metrics units, EXPLAIN (ANALYZE), and
# the span-accounting property tests (every trace partitions its charged
# virtual latency across tiers, sharding, and sync/async clients).
test-obs:
	python -m pytest tests/test_obs.py tests/test_explain.py \
		tests/test_obs_property.py -q

# The columnar-storage and codegen suites: typed/dictionary encoding units,
# storage x codegen x tier equivalence sweeps (sharded and unsharded), the
# zero-codegen_unsupported property gate, and the vectorized-tier units.
test-columnar:
	python -m pytest tests/test_typed_columns.py tests/test_vectorized.py -q

# The parallel scatter-gather suites: worker-pool units, the parallel ≡
# serial scatter ≡ unsharded equivalence sweep across codegen, kernel and
# interpreted execution in serial and thread pool modes (fallback plans,
# and errors raised inside partial aggregates mid-scatter), the
# single-table reads that run on the aggregate view without touching the
# pool, sorted-run merging of co-partitioned joins under a root Sort,
# out-of-order partial-aggregate merging, counter accounting, and the
# parallel trace breakdown.
test-parallel:
	python -m pytest tests/test_parallel.py -q

# Engine performance benchmarks; writes BENCH_engine.json in the repo root.
bench:
	python benchmarks/bench_engine.py

# The paper-figure benchmark suite (pytest-benchmark timings + tables).
bench-suite:
	python -m pytest benchmarks/ -q

# Scaled-down benchmark run used by CI (covers every bench entry, including
# the executor ones — scan_filter, hash_join, hash_join_wide, aggregate
# (vectorized ≡ kernel ≡ interpreted row equality asserted) — the sharded ones — sharded_point_lookup,
# sharded_scan_filter (aggregate-view route and exact row order asserted),
# sharded_aggregate — the parallel one — parallel_aggregate (pool ≡ serial
# row equality asserted) — and the robustness ones —
# wal_overhead (recovery equivalence asserted, group-commit delta included)
# and fault_retry_convergence (faulty ≡ fault-free row equality asserted) —
# and the concurrency ones — mvcc_reader_writer (snapshot consistency and
# the reader-latency bound asserted) and admission_open_loop (queueing knee
# asserted) — and the observability one — tracing_overhead (traced run
# within 5% of untraced asserted) — and the codegen ones —
# scan_filter_codegen, aggregate_codegen, dict_filter_strings (row equality
# across codegen/kernel/interpreted asserted, and the run fails if any
# benchmark plan hits a codegen_unsupported fallback); does not overwrite
# BENCH_engine.json.
bench-smoke:
	BENCH_ENGINE_ROWS=2000 BENCH_ENGINE_OUT=/tmp/BENCH_engine_smoke.json \
		python benchmarks/bench_engine.py > /dev/null
	@echo "bench smoke ok (wrote /tmp/BENCH_engine_smoke.json)"

# What CI runs: the full test suite (includes the async/pipeline suites),
# the fault and concurrency suites across extra seeds, the observability,
# columnar/codegen, and parallel-scatter suites, plus a benchmark smoke run.
ci: test test-async test-faults test-mvcc test-obs test-columnar test-parallel bench-smoke
