# repro: module=repro.sim.fixture
"""P002 positive fixture: per-packet allocations that call_after/call_at
or sim.alloc_packet would avoid.

The ``# repro: module=`` override puts this file in P002's scope exactly
as if it lived under ``src/repro/sim/``.
"""

from repro.sim import Packet


class Ticker:
    def __init__(self, sim):
        self.sim = sim
        self._sim = sim
        sim.after(1.0, self.tick)  # expect: P002

    def tick(self):
        self.sim.after(0.5, self.tick)  # expect: P002
        self.sim.at(9.0, self.tick)  # expect: P002
        self._sim.after(0.5, self.tick)  # expect: P002

    def deep_receiver(self, host):
        host.sim.after(0.5, self.tick)  # expect: P002


def hand_built(sim):
    return Packet(src=1, dst=2, size=100)  # expect: P002


def dotted_ctor(packet_mod):
    return packet_mod.Packet(1, 2, 100)  # expect: P002
