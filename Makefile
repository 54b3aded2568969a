# Convenience targets for the Loopapalooza reproduction.

PYTHONPATH := src
export PYTHONPATH

.PHONY: install test transform-report fuzz-smoke fuzz-report bench figures examples clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

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
	pytest benchmarks/ --benchmark-only

# The full paper run; exits non-zero if its crosscheck or advisor report
# shows a soundness violation.
figures:
	python -m repro figures

examples:
	python examples/quickstart.py
	python examples/dependence_census.py
	python examples/loop_diagnosis.py
	python examples/call_continuation_tls.py

clean:
	rm -rf build *.egg-info .pytest_cache benchmarks/out
	find . -name __pycache__ -type d -exec rm -rf {} +
