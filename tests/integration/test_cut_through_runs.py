"""Whole runs with and without the idle-link cut-through.

``Link`` hands a packet that finds its channel idle to the qdisc's
``admit_idle``; the default is literally ``enqueue`` + ``dequeue``, and
four classes override it with a shortcut.  Replacing every override with
the default must change nothing a run reports, and nothing an op-count
probe counts.  Independently of either path, every link must balance at
the end of every run: each packet handed to ``send`` was transmitted,
lost to a fault, refused by the qdisc, or is still queued.
"""

import pytest

from repro.api import ExperimentConfig, ScenarioSpec, run_spec
from repro.baselines.netfence import MarkingFifo
from repro.perf import OpCountProbe
from repro.sim import dumbbell_spec
from repro.sim.link import AggregateLink, Link
from repro.sim.queues import DropTailQueue, DRRFairQueue, PriorityScheduler, Qdisc

#: Every class that overrides ``admit_idle``.
OVERRIDES = (DropTailQueue, DRRFairQueue, PriorityScheduler, MarkingFifo)

CONFIG = ExperimentConfig(duration=2.0)
SCHEMES = ("tva", "siff", "pushback", "internet", "netfence")


def _spec(scheme, attack, aggregate, **kwargs):
    if aggregate:
        kwargs.update(topology=dumbbell_spec(n_users=10, n_attackers=10),
                      aggregate=True)
    return ScenarioSpec(scheme, attack, 10, config=CONFIG, **kwargs)


CASES = [
    pytest.param(_spec(scheme, attack, aggregate),
                 id=f"{scheme}-{attack}-{'aggregate' if aggregate else 'plain'}")
    for scheme in SCHEMES
    for attack in ("legacy", "colluder")
    for aggregate in (False, True)
] + [
    pytest.param(_spec("tva", "colluder", False, metrics=True),
                 id="tva-colluder-metrics"),
    pytest.param(_spec("netfence", "legacy", False,
                       faults=["link-down:0.5:1.2:bottleneck"]),
                 id="netfence-legacy-link-fault"),
]


def _without_overrides(monkeypatch):
    for cls in OVERRIDES:
        monkeypatch.setattr(cls, "admit_idle", Qdisc.admit_idle)


def _run_counting_arrivals(spec, monkeypatch):
    """Run ``spec``; return ``{link: packets handed to its send}``."""
    arrivals = {}
    with monkeypatch.context() as patch:
        for cls in (Link, AggregateLink):
            def send(self, pkt, _send=cls.send):
                arrivals[self] = arrivals.get(self, 0) + 1
                return _send(self, pkt)
            patch.setattr(cls, "send", send)
        run_spec(spec)
    return arrivals


@pytest.mark.parametrize("spec", CASES)
def test_every_link_balances(spec, monkeypatch):
    arrivals = _run_counting_arrivals(spec, monkeypatch)
    assert arrivals
    for link in sorted(arrivals, key=lambda link: link.name):
        sent = arrivals[link]
        qdiscs = [channel.qdisc for channel in link._all_channels()]
        assert sent == (
            link.tx_packets + link.fault_drops
            + sum(q.drops for q in qdiscs) + sum(q.backlog_pkts for q in qdiscs)
        ), link.name


@pytest.mark.parametrize("spec", CASES)
def test_overrides_change_no_result(spec, monkeypatch):
    fast = run_spec(spec).to_dict()
    _without_overrides(monkeypatch)
    assert run_spec(spec).to_dict() == fast


@pytest.mark.parametrize("spec", [
    pytest.param(_spec("tva", "legacy", False), id="fig8-tva"),
    pytest.param(_spec("tva", "colluder", False), id="fig10-tva"),
    pytest.param(_spec("netfence", "colluder", True), id="fig10-netfence"),
])
def test_overrides_change_no_op_count(spec, monkeypatch):
    with OpCountProbe() as fast:
        run_spec(spec)
    # Patched inside the probe (so the probe wraps the overrides, not the
    # default that calls the already-wrapped pair) and undone before it
    # restores the classes.
    with OpCountProbe() as plain:
        with monkeypatch.context() as patch:
            _without_overrides(patch)
            run_spec(spec)
    assert fast.counts.enqueues > 0
    assert plain.counts == fast.counts
