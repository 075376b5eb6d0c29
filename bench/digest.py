"""Digests of simulated outputs: sha256 over canonical JSON.

Two result files of the same seed and sizes must carry equal digests
unless the model itself changed; ``golden/digests.json`` pins seed 1.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden", "digests.json")
GOLDEN_SEED = 1


def digest(obj) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def histograms_json(stats) -> Dict[str, dict]:
    """``Stats`` histograms in the shape ``RunResult.histograms`` has."""
    return {
        key: {"bucket_width": hist.bucket_width, "count": hist.count,
              "buckets": {str(b): n for b, n in hist.buckets.items()}}
        for key, hist in stats.histograms.items()
    }


def run_payload(result) -> dict:
    """What a ``RunResult`` must reproduce exactly."""
    return {
        "spec_key": result.spec_key,
        "exec_cycles": result.exec_cycles,
        "counters": result.counters,
        "means": result.means,
        "histograms": result.histograms,
    }


def stats_payload(stats, exec_cycles: int) -> dict:
    """The part of a run a bare ``Stats`` exposes: what the ``system.*``
    replica and the sharded engine are checked against ``api.run`` with."""
    return {"exec_cycles": exec_cycles, "counters": dict(stats.counters),
            "histograms": histograms_json(stats)}


def run_stats_payload(result) -> dict:
    """The same part of a ``RunResult``."""
    return {"exec_cycles": result.exec_cycles, "counters": result.counters,
            "histograms": result.histograms}


def traffic_payload(traffic) -> dict:
    stats = traffic.net.stats
    return {
        "cycle": traffic.cycle,
        "requests_sent": traffic.requests_sent,
        "replies_received": traffic.replies_received,
        "reply_latencies": traffic.reply_latencies,
        "counters": dict(stats.counters),
        "means": {k: [m.total, m.count] for k, m in stats.means.items()},
        "histograms": histograms_json(stats),
    }


def load_golden() -> Dict[str, Dict[str, str]]:
    try:
        with open(GOLDEN_PATH) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def golden_for(mode: str, workload: str, seed: int) -> Optional[str]:
    """The committed digest, or None when none applies (other seeds)."""
    if seed != GOLDEN_SEED:
        return None
    return load_golden().get(mode, {}).get(workload)
