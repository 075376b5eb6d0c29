# Convenience targets for the Reactive Circuits reproduction.

PYTHON ?= python

.PHONY: install test bench reproduce examples clean

install:
	pip install -e .[test] || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Full paper-vs-measured report at scale 1 (200 runs: 480-540 s wall,
# about 1 000 s CPU with 2 jobs on a 2-CPU host from an empty store): writes
# out/report.txt and out/FIDELITY.json, then refreshes the committed
# FIDELITY.json and the generated tables of EXPERIMENTS.md from it.
reproduce:
	REPRO_SCALE=1 REPRO_CACHE=out/results/ PYTHONPATH=src $(PYTHON) tools/run_reproduction.py out/report.txt --jobs 2
	cp out/FIDELITY.json FIDELITY.json
	PYTHONPATH=src $(PYTHON) -c 'from repro.harness import render; render.refresh_experiments()'

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
