"""End-to-end and per-layer benchmark of the Reactive-Circuits simulator.

One run of one workload (the contract ``BENCHMARK.json`` fixes)::

    python3 -m bench --workload cmp16_canneal --seed 1 --seconds 10 --trace 0

Every workload, one result file (``bench/out/result-*.json``)::

    python3 -m bench [--trace] [--quick] [--seed N] [--repeat N]
    python3 -m bench compare A.json B.json

The package measures ``src/repro`` from outside: it times calls into
public functions and attaches the public ``KernelProfiler`` to simulators
it built itself.  ``bench/README.md`` is the glossary.
"""
