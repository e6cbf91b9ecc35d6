"""FLT001 fixture: the array-contract form of an ad-hoc fault wrapper."""

from __future__ import annotations


class MutingChannel:
    """Silences every receiver — fault behaviour outside repro.faults."""

    def __init__(self, inner):
        self._inner = inner

    def _reception(self, senders):
        receivers, columns = self._inner._reception(senders)
        return receivers[:0], columns[:0]


class LeafChannel:
    """A leaf channel answering from its own geometry — not a wrapper."""

    def _reception(self, senders):
        return self._reception_of(self._geometry(senders))

    def _reception_of(self, geometry):
        return geometry

    def _geometry(self, senders):
        return senders
