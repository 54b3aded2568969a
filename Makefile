# Convenience targets for the Loopapalooza reproduction.

PYTHONPATH := src
export PYTHONPATH

.PHONY: install test lint-ir crosscheck advise-report transform-report fuzz-smoke fuzz-report bench bench-interp sweep-smoke sweep-fault-smoke figures examples clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

lint-ir:
	python -m repro lint --bench all

crosscheck:
	python tools/crosscheck_report.py

# Advisor soundness gate: every advised @parallel/@reduce loop across the
# bench suites must profile conflict-free (exits non-zero otherwise).
advise-report:
	python -m repro advise --suite --crosscheck --loops

transform-report:
	python tools/transform_report.py

# Fixed-seed differential fuzzing campaign (~60s): exits non-zero if any
# generated program trips an oracle and gets quarantined.
fuzz-smoke:
	python -m repro fuzz --seed 0 --count 60 --profile mixed \
		--time-budget 55

fuzz-report:
	python tools/fuzz_report.py

bench:
	pytest benchmarks/ --benchmark-only \
		--benchmark-json=BENCH_infrastructure.json

bench-interp:
	python tools/bench_interp.py

sweep-smoke:
	python -c "\
	from repro.bench.suites import SuiteRunner, suite_programs; \
	runner = SuiteRunner(); \
	grid = runner.evaluate_many( \
	    suite_programs('eembc')[:2], \
	    ('doall:reduc1-dep0-fn0', 'helix:reduc1-dep3-fn3'), \
	    jobs=2); \
	[print(f'{name:40s} {cfg:24s} {r.speedup:8.3f}x') \
	 for name, row in grid.items() for cfg, r in row.items()]; \
	print(runner.store.stats.describe())"

sweep-fault-smoke:
	python tools/sweep_fault_smoke.py

figures:
	python examples/full_paper_run.py

examples:
	python examples/quickstart.py
	python examples/dependence_census.py
	python examples/loop_diagnosis.py
	python examples/call_continuation_tls.py

clean:
	rm -rf build *.egg-info .pytest_cache benchmarks/out
	find . -name __pycache__ -type d -exec rm -rf {} +
