# Convenience targets for the Loopapalooza reproduction.

PYTHONPATH := src
export PYTHONPATH

.PHONY: install test fuzz-smoke fuzz-report figures examples clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# Fixed-seed differential fuzzing campaigns (under 60s): the mixed generator
# profile, then the calls profile, which exercises the call records'
# write sets. Exits non-zero if any generated program trips an oracle and
# gets quarantined.
fuzz-smoke:
	python -m repro fuzz --seed 0 --count 60 --profile mixed \
		--time-budget 30
	python -m repro fuzz --seed 0 --count 60 --profile calls \
		--time-budget 25

fuzz-report:
	python tools/fuzz_report.py

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
