"""Crash-safe campaign orchestration.

A *campaign* is the paper's full result set — Tables II/III/VI, the
static tables, Figures 1-4 — decomposed into a deterministic DAG of
benchmark units.  The subsystem has four layers:

* :mod:`repro.campaign.spec` — named campaign specs: units, their
  dependencies, and a content digest that pins what "the same campaign"
  means across processes;
* :mod:`repro.campaign.journal` — the write-ahead journal: checksummed
  JSONL records with O(1) fsync'd appends, torn-tail detection, and
  heal-on-append recovery;
* :mod:`repro.campaign.store` — the integrity-verified result store:
  one JSON payload per completed unit, digest-bound to the journal;
* :mod:`repro.campaign.scheduler` — the ``--jobs N`` multi-process DAG
  scheduler: opportunistic execution across a worker pool, commits
  strictly in topological order;
* :mod:`repro.campaign.supervisor` — the self-healing layer under the
  scheduler: dead-worker detection and respawn (with a budget),
  poison-unit quarantine, heartbeat-based hang kills, and graceful
  degradation to an in-process serial drain;
* :mod:`repro.campaign.orchestrator` — commits units in topological
  order under a supervisor (per-unit simulated-time watchdog, campaign
  deadline, SIGINT/SIGTERM flush), journals every transition, and on
  ``resume`` re-executes only incomplete or corrupted units.

Determinism contract: a campaign interrupted after any unit and then
resumed — serially or with any ``--jobs N`` — produces byte-identical
journal, store, final tables and manifest to an uninterrupted serial
run with the same seed and scenario.  Supervised healing (worker
respawns, hang kills, transient-ENOSPC retries) preserves that
contract; only poison-unit quarantine and degraded mode leave a
(deterministic) trace.
"""

from .journal import Journal
from .orchestrator import Orchestrator
from .scheduler import DagScheduler, resolve_jobs, scheduler_selfcheck
from .spec import SPEC_NAMES, CampaignSpec, CampaignUnit, get_spec
from .store import ResultStore
from .supervisor import DEFAULT_MAX_RESPAWNS, SupervisionStats, WorkerSupervisor

__all__ = [
    "CampaignSpec",
    "CampaignUnit",
    "DEFAULT_MAX_RESPAWNS",
    "DagScheduler",
    "Journal",
    "Orchestrator",
    "ResultStore",
    "SPEC_NAMES",
    "SupervisionStats",
    "WorkerSupervisor",
    "get_spec",
    "resolve_jobs",
    "scheduler_selfcheck",
]
