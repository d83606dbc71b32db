"""Measurement instrumentation.

The paper's simulation metrics are (i) the average fraction of completed
transfers and (ii) the average time of the transfers that complete
(Section 5).  :class:`TransferLog` collects exactly those, plus the
per-transfer time series needed for Figure 11.

For everything sampled over time — link utilization, backlog, drops
broken down by reason, flow-state occupancy, transport retransmits,
exported through :class:`~repro.eval.results.RunResult` — use
:mod:`repro.obs` (``--metrics`` on the CLI).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class TransferRecord:
    """One application-level transfer attempt."""

    src: int
    dst: int
    nbytes: int
    start: float
    end: Optional[float] = None
    aborted: bool = False

    @property
    def completed(self) -> bool:
        return self.end is not None and not self.aborted

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start


@dataclass
class TransferLog:
    """Aggregates transfer attempts across all legitimate users."""

    records: List[TransferRecord] = field(default_factory=list)

    def open(self, src: int, dst: int, nbytes: int, start: float) -> TransferRecord:
        record = TransferRecord(src=src, dst=dst, nbytes=nbytes, start=start)
        self.records.append(record)
        return record

    # -- paper metrics ---------------------------------------------------
    @property
    def attempted(self) -> int:
        """Transfers that finished one way or the other, see
        :meth:`attempted_by`."""
        return self.attempted_by(None)

    def attempted_by(self, horizon: Optional[float]) -> int:
        """Transfers that count for the completion fraction.

        A record counts when it finished (completed or aborted), or when it
        started at or before ``horizon`` — a transfer that began early and
        is still hanging at the end of the measurement window was denied
        service and must count against the scheme, not be censored."""
        return sum(
            1
            for r in self.records
            if r.end is not None
            or r.aborted
            or (horizon is not None and r.start <= horizon)
        )

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.completed)

    def fraction_completed(self, horizon: Optional[float] = None) -> float:
        attempted = self.attempted_by(horizon)
        if attempted == 0:
            return 0.0
        return self.completed / attempted

    def average_completion_time(self) -> Optional[float]:
        durations = [r.duration for r in self.records if r.completed]
        if not durations:
            return None
        return sum(durations) / len(durations)

    def time_series(self) -> List[tuple]:
        """(start_time, duration) for each completed transfer — Figure 11."""
        return sorted(
            (r.start, r.duration) for r in self.records if r.completed
        )

    def __len__(self) -> int:
        return len(self.records)
