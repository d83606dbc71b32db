"""What one aggregated flood member costs in memory.

An ``AggregateLink`` builds a scheduler per member channel, and the
runner gives every member its own jitter source; with 10⁴ members these
two dominate ``flood_10k``'s footprint.  A member that only ever sends
through an idle channel (``admit_idle``) and draws a few jitter values
must not pay for classes, FIFOs, drop tallies, instance dicts or a
live Mersenne-Twister it never uses.
"""

import gc
import importlib
import pkgutil
import tracemalloc

import repro
from repro.core import TvaScheme
from repro.sim import Packet, Qdisc, TokenBucket
from repro.transport.agents import JitterStream

MEMBERS = 2_000
DRAWS = 20
#: Bytes per member (one TVA channel + one jitter stream).  Midway between
#: scheduler classes built on first use (905 B: only the legacy FIFO) and
#: all three classes built with the scheduler (1 713 B).
BUDGET = 1_300


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_member_footprint_within_budget():
    scheme = TvaScheme()
    pkt = Packet(src=1, dst=2, size=1_000)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        channels = [scheme.make_qdisc("access_up", 10e6) for _ in range(MEMBERS)]
        streams = [JitterStream(1_000 + i) for i in range(MEMBERS)]
        for channel in channels:
            assert channel.admit_idle(pkt, 0.0) is pkt
            # A legacy packet builds the legacy class only.
            assert channel.built == [False, False, True]
        for stream in streams:
            for _ in range(DRAWS):
                stream.uniform(-0.3, 0.3)
        gc.collect()
        per_member = (tracemalloc.get_traced_memory()[0] - before) / MEMBERS
    finally:
        tracemalloc.stop()
    assert per_member <= BUDGET, f"{per_member:.0f} B per member > {BUDGET} B"


def test_disciplines_carry_no_instance_dict():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
    classes = [TokenBucket, Qdisc] + [
        cls for cls in _subclasses(Qdisc) if cls.__module__.startswith("repro.")
    ]
    assert len(classes) >= 7  # the five sim disciplines and MarkingFifo
    for cls in classes:
        assert cls.__dictoffset__ == 0, f"{cls.__qualname__} instances carry a __dict__"
