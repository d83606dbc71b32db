"""Layer micro-benchmarks: one layer driven in isolation through its
public functions, CPU time per operation.

They do not depend on the workload or the seed; a traced run reports
them next to every workload's profile so a layer's ``self_s`` and the
cost of its primitive can be read together.  Each ``_setup_*`` function
builds its fixture once and returns a ``step()`` that performs a batch
of operations and returns how many.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

from repro.api import (
    CbrFlood,
    DropTailQueue,
    PacketSink,
    ResultCache,
    RunResult,
    ScenarioSpec,
    Simulator,
    build_chain,
    build_scheme,
)
from repro.core.header import RegularHeader, RequestHeader, unpack_header
from repro.eval.procbench import RouterWorkbench
from repro.sim import DRRFairQueue

from catalogue import MICRO, median
from workloads import WORKLOADS

#: Batches per micro-benchmark; the reported value is their median.
BATCHES = 5

_BATCH_OPS = 1000
_PKT = 1000


def _noop() -> None:
    pass


def _setup_engine_fire(_tmp):
    sim = Simulator()
    call_after, run = sim.call_after, sim.run

    def step() -> int:
        for _ in range(_BATCH_OPS):
            call_after(1e-6, _noop)
        run()
        return _BATCH_OPS

    return step


def _setup_engine_rearm(_tmp):
    # The TCP retransmit-timer pattern: every ACK cancels the pending
    # timer and arms a new one; almost none ever fire.
    sim = Simulator()
    at, cancel = sim.at, sim.cancel

    def step() -> int:
        event = at(sim.now + 1.0, _noop)
        for _ in range(_BATCH_OPS):
            cancel(event)
            event = at(sim.now + 1.0, _noop)
        cancel(event)
        sim.run()
        return _BATCH_OPS

    return step


def _fwd_step(qdisc, packets) -> Callable[[], int]:
    """Enqueue + dequeue at a fixed standing backlog."""
    enqueue, dequeue = qdisc.enqueue, qdisc.dequeue

    def step() -> int:
        for pkt in packets:
            enqueue(pkt)
            dequeue(0.0)
        return len(packets)

    return step


def _drop_step(qdisc, pkt) -> Callable[[], int]:
    """Arrivals at a full queue."""
    enqueue = qdisc.enqueue

    def step() -> int:
        for _ in range(_BATCH_OPS):
            enqueue(pkt)
        return _BATCH_OPS

    return step


def _setup_droptail_fwd(_tmp):
    sim = Simulator()
    qdisc = DropTailQueue(limit_bytes=None, limit_pkts=50)
    for _ in range(10):
        qdisc.enqueue(sim.alloc_packet(1, 2, _PKT))
    return _fwd_step(qdisc, [sim.alloc_packet(1, 2, _PKT) for _ in range(_BATCH_OPS)])


def _setup_droptail_drop(_tmp):
    sim = Simulator()
    qdisc = DropTailQueue(limit_bytes=None, limit_pkts=50)
    while qdisc.enqueue(sim.alloc_packet(1, 2, _PKT)):
        pass
    return _drop_step(qdisc, sim.alloc_packet(1, 2, _PKT))


def _setup_drr_fwd(_tmp):
    # 256 backlogged keys, two packets each; every dequeued packet goes
    # straight back in, so the backlog and the key set stay fixed.
    sim = Simulator()
    qdisc = DRRFairQueue(key_fn=lambda pkt: pkt.dst)
    for _ in range(2):
        for dst in range(256):
            qdisc.enqueue(sim.alloc_packet(1, dst, _PKT))
    enqueue, dequeue = qdisc.enqueue, qdisc.dequeue

    def step() -> int:
        for _ in range(_BATCH_OPS):
            enqueue(dequeue(0.0))
        return _BATCH_OPS

    return step


def _tva_bottleneck_qdisc():
    return build_scheme("tva").make_qdisc("bottleneck", 10e6)


def _setup_tva_fwd(_tmp):
    # Regular-class packets (nonce-only capability shim) through the full
    # TVA hierarchy: classifier chain -> per-destination DRR -> priority
    # dequeue.
    sim = Simulator()
    qdisc = _tva_bottleneck_qdisc()

    def regular(dst):
        return sim.alloc_packet(1, dst, _PKT, shim=RegularHeader(flow_nonce=dst))

    for dst in range(10):
        if not qdisc.enqueue(regular(dst)):
            raise RuntimeError("TVA qdisc refused a regular packet")
    return _fwd_step(qdisc, [regular(i % 10) for i in range(_BATCH_OPS)])


def _setup_tva_drop(_tmp):
    # Legacy arrivals at a full legacy queue: the Figure 8 drop path.
    sim = Simulator()
    qdisc = _tva_bottleneck_qdisc()
    while qdisc.enqueue(sim.alloc_packet(1, 2, _PKT)):
        pass
    return _drop_step(qdisc, sim.alloc_packet(1, 2, _PKT))


def _setup_chain_forward(_tmp):
    # Bare forwarding: one CBR source at 90 % of line rate across three
    # legacy routers, nothing dropped.  An operation is a delivered packet.
    sim = Simulator()
    net = build_chain(sim, build_scheme("internet"), n_routers=3, link_bps=10e6)
    sink = PacketSink(net.destination)
    CbrFlood(
        sim, net.users[0], net.destination.address,
        rate_bps=9e6, pkt_size=_PKT, mode="legacy",
    )

    def step() -> int:
        before = sink.packets
        sim.run(until=sim.now + 1.0)
        delivered = sink.packets - before
        if delivered < 1000:
            raise RuntimeError(f"chain delivered only {delivered} packets/s")
        return delivered

    return step


def _setup_router(kind: str):
    def setup(_tmp):
        bench = RouterWorkbench(pool_size=256)
        run_batch = bench.run_batch

        def step() -> int:
            run_batch(kind, 256)
            return 256

        return step

    return setup


def _setup_header_roundtrip(_tmp):
    # Figure 5 wire format, both common shapes: a request stamped by two
    # routers, and a nonce-only regular header.
    bench = RouterWorkbench(pool_size=1)
    request = RequestHeader()
    for _ in range(2):
        bench.core.process_request(1, bench.dst, request, 1000.0, "if0")
    headers = [request, RegularHeader(flow_nonce=4242)] * (_BATCH_OPS // 2)

    def step() -> int:
        for header in headers:
            unpack_header(header.pack())
        return len(headers)

    return step


def _fig8_spec() -> ScenarioSpec:
    return WORKLOADS["tva_legacy_flood"].specs(seed=1)[0]


def _setup_spec_key(_tmp):
    spec = _fig8_spec()

    def step() -> int:
        for _ in range(100):
            spec.key()
        return 100

    return step


def _setup_cache_roundtrip(tmp):
    cache = ResultCache(tmp)
    key = _fig8_spec().key()
    result = RunResult(
        scheme="tva", attack="legacy", n_attackers=100, seed=1,
        fraction_completed=1.0, avg_transfer_time=0.3,
        transfers_attempted=300, transfers_completed=300,
        time_series=tuple((i * 0.04, 0.3) for i in range(300)),
        spec_key=key,
    )

    def step() -> int:
        for _ in range(20):
            if not cache.put(key, result) or cache.get(key) != result:
                raise RuntimeError("result cache round trip lost the result")
        return 20

    return step


SETUPS: Dict[str, Callable] = {
    "sim.engine.fire_ns": _setup_engine_fire,
    "sim.engine.rearm_ns": _setup_engine_rearm,
    "sim.queues.droptail_fwd_ns": _setup_droptail_fwd,
    "sim.queues.droptail_drop_ns": _setup_droptail_drop,
    "sim.queues.drr_fwd_ns": _setup_drr_fwd,
    "sim.queues.tva_fwd_ns": _setup_tva_fwd,
    "sim.queues.tva_drop_ns": _setup_tva_drop,
    "sim.link.chain_forward_ns": _setup_chain_forward,
    "core.router.request_ns": _setup_router("request"),
    "core.router.regular_cached_ns": _setup_router("regular_cached"),
    "core.router.regular_uncached_ns": _setup_router("regular_uncached"),
    "core.router.renewal_cached_ns": _setup_router("renewal_cached"),
    "core.router.renewal_uncached_ns": _setup_router("renewal_uncached"),
    "core.header.roundtrip_ns": _setup_header_roundtrip,
    "eval.spec_key_us": _setup_spec_key,
    "eval.cache_roundtrip_us": _setup_cache_roundtrip,
}


def run_micro(name: str, batch_s: float, tmp_dir: str) -> float:
    """Median CPU time per operation over ``BATCHES`` batches of at least
    ``batch_s`` CPU seconds each, in the metric's unit (ns or us)."""
    step = SETUPS[name](tmp_dir)
    step()  # warm-up: first-call allocation and lazy set-up
    scale = 1e9 if MICRO[name] == "ns" else 1e6
    samples = []
    for _ in range(BATCHES):
        ops = 0
        start = time.process_time()
        elapsed = 0.0
        while elapsed < batch_s:
            ops += step()
            elapsed = time.process_time() - start
        samples.append(elapsed / ops * scale)
    return median(samples)


def run_all(batch_s: float, tmp_dir: str) -> Dict[str, float]:
    return {name: run_micro(name, batch_s, tmp_dir) for name in MICRO}
