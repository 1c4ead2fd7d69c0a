"""Persistent verification store.

The :class:`VerificationStore` owns every piece of cross-run verdict
state in one directory of checksummed, versioned records
(:mod:`repro.store.records`):

* **verdicts** — one record per publish, loaded with
  quarantine-on-corruption and folded by compaction, so campaign warm
  starts open the store instead of pickling entries into every job;
* a **plan-result cache** — finished plan payloads keyed on
  ``(NetworkModel fingerprint, Plan fingerprint)``, so a repeated identical
  query batch never runs a campaign at all;
* **delta baselines** — the last campaign over each snapshot directory.

The cross-process tier of one pooled campaign is not here: it is a single
``multiprocessing.Manager`` dict, started by :mod:`repro.core.executor` and
consulted by :class:`~repro.solver.incremental.IncrementalSolver`.

Both obey one invariant: any combination of {no store, cold store, warm
store} × {workers 1, N} changes *which tier answers* a satisfiability
query, never the answer.
"""

from repro.store.records import RecordError, read_record, write_record
from repro.store.store import StoreError, VerificationStore, clear_load_cache

__all__ = [
    "RecordError",
    "StoreError",
    "VerificationStore",
    "clear_load_cache",
    "read_record",
    "write_record",
]
