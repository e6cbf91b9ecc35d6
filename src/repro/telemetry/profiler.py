"""Per-slot wall-time attribution.

:class:`SlotProfiler` answers "where does a simulated slot's wall time
go?" — split into the three sections every slot loop has:

* ``node_s`` — node callbacks: wake-ups, timers, payload construction and
  reception dispatch,
* ``resolve_s`` — ``Channel.resolve`` (the numerical core),
* ``observer_s`` — end-of-slot observers (audits, meters, traces).

The simulator accepts a profiler via its ``profiler=`` argument and
feed it one :meth:`record_slot` call per executed (active) slot; the
profiler never touches the simulation state, so attaching one cannot
change a run's outcome.  Per-slot records are retained (up to
``max_records``) for JSONL export; aggregate totals are always kept.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError

__all__ = ["SlotProfile", "SlotProfiler"]


@dataclass(frozen=True)
class SlotProfile:
    """One slot's wall-time attribution (all times in seconds)."""

    slot: int
    node_s: float
    resolve_s: float
    observer_s: float
    transmissions: int
    deliveries: int

    @property
    def total_s(self) -> float:
        """Wall time of the whole slot."""
        return self.node_s + self.resolve_s + self.observer_s

    def as_record(self) -> dict:
        """The JSONL ``slot`` record body for this profile."""
        return {
            "slot": self.slot,
            "node_s": self.node_s,
            "resolve_s": self.resolve_s,
            "observer_s": self.observer_s,
            "tx": self.transmissions,
            "rx": self.deliveries,
        }


class SlotProfiler:
    """Accumulates per-slot timing splits from a simulator.

    Parameters
    ----------
    max_records:
        Cap on retained per-slot records (aggregates keep counting past
        it).  ``None`` retains every slot; 0 keeps aggregates only.
    """

    def __init__(self, max_records: int | None = None) -> None:
        if max_records is not None and max_records < 0:
            raise ConfigurationError(
                f"max_records must be >= 0, got {max_records}"
            )
        self._max_records = max_records
        self.records: list[SlotProfile] = []
        self.slots = 0
        self.node_s = 0.0
        self.resolve_s = 0.0
        self.observer_s = 0.0
        self.transmissions = 0
        self.deliveries = 0
        self.truncated = 0

    def record_slot(
        self,
        slot: int,
        node_s: float,
        resolve_s: float,
        observer_s: float,
        transmissions: int,
        deliveries: int,
    ) -> None:
        """Ingest one executed slot's section timings."""
        self.slots += 1
        self.node_s += node_s
        self.resolve_s += resolve_s
        self.observer_s += observer_s
        self.transmissions += transmissions
        self.deliveries += deliveries
        if self._max_records is None or len(self.records) < self._max_records:
            self.records.append(
                SlotProfile(
                    slot=slot,
                    node_s=node_s,
                    resolve_s=resolve_s,
                    observer_s=observer_s,
                    transmissions=transmissions,
                    deliveries=deliveries,
                )
            )
        else:
            self.truncated += 1

    @property
    def total_s(self) -> float:
        """Total profiled wall time across all recorded slots."""
        return self.node_s + self.resolve_s + self.observer_s

    def summary(self) -> dict:
        """Aggregate attribution: totals, shares, per-slot means.

        Shares are fractions of :attr:`total_s` (0.0 on an empty
        profiler); this is the dict the ``repro report`` phase-timing
        table renders.
        """
        total = self.total_s
        share = (lambda part: part / total if total > 0 else 0.0)
        return {
            "slots": self.slots,
            "total_s": total,
            "node_s": self.node_s,
            "resolve_s": self.resolve_s,
            "observer_s": self.observer_s,
            "node_share": share(self.node_s),
            "resolve_share": share(self.resolve_s),
            "observer_share": share(self.observer_s),
            "mean_slot_us": (total / self.slots * 1e6) if self.slots else 0.0,
            "transmissions": self.transmissions,
            "deliveries": self.deliveries,
            "truncated_records": self.truncated,
        }

    def rows(self) -> list[dict]:
        """``format_table`` rows: one per section plus the total."""
        summary = self.summary()
        return [
            {
                "section": name,
                "seconds": summary[f"{key}_s"],
                "share": summary[f"{key}_share"],
            }
            for name, key in (
                ("node callbacks", "node"),
                ("channel resolve", "resolve"),
                ("observers", "observer"),
            )
        ] + [{"section": "total", "seconds": summary["total_s"], "share": 1.0 if summary["total_s"] > 0 else 0.0}]
