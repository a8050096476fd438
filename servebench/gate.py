"""The correctness gate every benchmark run must pass.

* every request got a 200 whose body is a denial or the exact answer
  (the load generator judges each response against the generated data);
* after shutdown, every WAL directory found under the run's ``--wal``
  root is recovered through the public recovery API
  (``open_wal_auditor``), and together they hold exactly as many
  durable decisions as the clients received 200s: released implies
  journalled, end to end.
"""

from __future__ import annotations

import os
from typing import List, Sequence

from loadgen import Phase


def _auditor_factory(name: str, seed: int):
    from repro.auditors.max_prob import MaxProbabilisticAuditor
    from repro.auditors.maxmin_prob import MaxMinProbabilisticAuditor
    from repro.auditors.sum_classic import SumClassicAuditor

    if name == "sum":
        return SumClassicAuditor
    classes = {"max-prob": MaxProbabilisticAuditor,
               "maxmin-prob": MaxMinProbabilisticAuditor}
    return lambda ds: classes[name](ds, rng=seed)


def wal_dirs(root: str) -> List[str]:
    """Every checkpointed WAL directory (one holding a manifest) under
    ``root``, found by walking it rather than by naming convention."""
    from repro.resilience.checkpoint import MANIFEST_NAME

    return sorted(path for path, _dirs, files in os.walk(root)
                  if MANIFEST_NAME in files)


def recovered_decisions(root: str, values: Sequence[int], auditor: str,
                        seed: int) -> int:
    """Durable decisions in all WAL directories under ``root``."""
    from repro.resilience.wal import open_wal_auditor
    from repro.sdb.dataset import Dataset

    floats = [float(v) for v in values]
    total = 0
    for path in wal_dirs(root):
        dataset = Dataset(floats, low=min(floats), high=max(floats))
        wrapped, _ = open_wal_auditor(path, _auditor_factory(auditor, seed),
                                      dataset)
        try:
            total += wrapped.wal.total_events
        finally:
            wrapped.close()
    return total


def check(phases: Sequence[Phase], wal_root: str, values: Sequence[int],
          auditor: str, seed: int) -> List[str]:
    """The gate's violations (empty when the run is correct)."""
    problems = []
    for phase in phases:
        if phase.failed:
            problems.append(f"{phase.name}: {phase.failed} of {phase.sent} "
                            f"requests failed or were answered wrongly")
    released = sum(o.status == 200 for p in phases for o in p.outcomes)
    if not wal_dirs(wal_root):
        problems.append(f"no WAL directory found under {wal_root}")
    durable = recovered_decisions(wal_root, values, auditor, seed)
    if durable != released:
        problems.append(f"clients received {released} decisions but the "
                        f"recovered WALs hold {durable}")
    return problems
