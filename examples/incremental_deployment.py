#!/usr/bin/env python3
"""Incremental deployment (Section 8).

TVA does not need a flag day: capability processing boxes go in at trust
boundaries and points of congestion, and legacy routers in between are
untouched.  This example builds a five-router chain, deploys TVA at only
the two edge routers, floods the middle, and shows that (a) legitimate
transfers still complete because the congested edge is protected, and
(b) legacy hosts keep communicating (at low priority) through the same
capability routers.

Run:  python examples/incremental_deployment.py
"""

import random

from repro.api import (
    CbrFlood,
    RepeatingTransferClient,
    Simulator,
    TcpListener,
    TransferLog,
    TvaKnobs,
    TvaScheme,
    chain_spec,
    instantiate,
)


def main() -> None:
    sim = Simulator()
    scheme = TvaScheme(TvaKnobs(request_fraction=0.05,
                                server_grant=(256 * 1024, 10)))
    net = instantiate(chain_spec(n_routers=5, n_hosts_per_end=3, link_bps=10e6),
                      sim, scheme)

    # Deployment: keep capability processing only at the edges (R0, R4);
    # the core routers R1-R3 become legacy forwarders.
    for node in net.nodes:
        if node.name in ("R1", "R2", "R3"):
            node.processor = None
    print("Chain: hosts -- [R0:TVA] -- R1 -- R2 -- R3 -- [R4:TVA] -- server")
    print("Capability processing deployed at the edges only.")
    print()

    server = net.destination
    TcpListener(sim, server, 80)
    log = TransferLog()
    rng = random.Random(5)

    # Two upgraded senders and one legacy sender (no shim).
    upgraded = net.users[:2]
    legacy_host = net.users[2]
    legacy_host.shim = None
    legacy_log = TransferLog()
    for user in upgraded:
        RepeatingTransferClient(sim, user, server.address, 80, nbytes=20_000,
                                log=log, start_at=rng.uniform(0, 0.2),
                                stop_at=10.0)
    RepeatingTransferClient(sim, legacy_host, server.address, 80,
                            nbytes=20_000, log=legacy_log,
                            start_at=0.1, stop_at=10.0)

    # An attacker host glued to the first router floods the server.
    from repro.api import DropTailQueue, Host, Link, build_static_routes

    attacker = Host(sim, "attacker", 99, shim=None)
    r0 = [n for n in net.nodes if n.name == "R0"][0]
    up = Link(sim, attacker, r0, 100e6, 0.005, DropTailQueue(limit_bytes=None, limit_pkts=50))
    down = Link(sim, r0, attacker, 100e6, 0.005, DropTailQueue(limit_bytes=None, limit_pkts=50))
    attacker.add_link(up)
    r0.add_link(down)
    net.nodes.append(attacker)
    build_static_routes(net.nodes)
    CbrFlood(sim, attacker, server.address, rate_bps=30e6, pkt_size=1000,
             mode="legacy", jitter=0.2)

    sim.run(until=10.0)

    print("Under a 30 Mb/s legacy flood entering at the protected edge:")
    avg = log.average_completion_time()
    print(f"  upgraded clients : completion "
          f"{log.fraction_completed(8.0):.2f}, avg "
          f"{'-' if avg is None else f'{avg:.2f}'} s")
    lavg = legacy_log.average_completion_time()
    print(f"  legacy client    : completion "
          f"{legacy_log.fraction_completed(8.0):.2f}, avg "
          f"{'-' if lavg is None else f'{lavg:.2f}'} s")
    print()
    print("Upgraded hosts get full protection from the first upgraded")
    print("router onward; the legacy host shares the lowest class with the")
    print("flood (Section 8: legacy hosts keep working, just unprotected).")


if __name__ == "__main__":
    main()
