"""Simulation-as-a-service: the job daemon and its client.

Start a daemon (CLI: ``python -m repro.harness serve``)::

    from repro.service import Daemon
    Daemon("/tmp/repro.sock", workers=4).serve_forever()

Talk to it (usually indirectly, through :mod:`repro.api` with
``REPRO_SERVICE=/tmp/repro.sock``)::

    from repro.service import ServiceClient
    client = ServiceClient("/tmp/repro.sock")
    jobs = client.submit([spec, ...])
    done = client.results([j["job_id"] for j in jobs])

Architecture notes live in ``docs/architecture.md`` §15; the pieces are

* :mod:`repro.service.daemon` -- job table over a :class:`repro.proc.Fleet`,
  socket server;
* :mod:`repro.service.client` -- the line-protocol client;
* :mod:`repro.service.jobs` -- job states, dedup rules, the job table;
* :mod:`repro.service.protocol` -- framing, addresses, spec (de)serialisation.
"""

from repro import _lazy_exports

#: Public name -> the module that defines it.
_EXPORTS = {
    "Daemon": "repro.service.daemon",
    "ServiceClient": "repro.service.client",
    "ServiceError": "repro.service.client",
    "ServiceUnavailable": "repro.service.client",
    "Job": "repro.service.jobs",
    "JobTable": "repro.service.jobs",
    "QUEUED": "repro.service.jobs",
    "RUNNING": "repro.service.jobs",
    "DONE": "repro.service.jobs",
    "FAILED": "repro.service.jobs",
}

__all__ = list(_EXPORTS)

_lazy_exports(globals(), _EXPORTS)
