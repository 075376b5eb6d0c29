# Convenience targets for the Reactive Circuits reproduction.

PYTHON ?= python

.PHONY: install test bench reproduce examples clean

install:
	pip install -e .[test] || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Full paper-vs-measured sweep (hours at scale 1; see EXPERIMENTS.md).
reproduce:
	REPRO_CACHE=out/results/ $(PYTHON) tools/run_reproduction.py out/report.txt

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/noc_microscope.py
	$(PYTHON) examples/timed_slack_sweep.py
	$(PYTHON) examples/multiprogrammed_mix.py
	$(PYTHON) examples/scaling_study.py
	$(PYTHON) examples/partitioned_chip.py

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
