#!/usr/bin/env python3
"""Network dynamics: reboot a router mid-run and watch schemes recover.

Section 3.8's claim is that TVA degrades gracefully under route and
router churn: a reboot wipes the router's flow cache and secret, every
established sender gets demoted at that hop, the destination echoes the
demotion, and senders re-request — a bounded hiccup.  SIFF loses its
marks the same way but recovers poorly (explorer packets compete with
legacy floods), and the stateless Internet never notices.

This example runs the comparison two ways: the ``dynamics`` entry of
``FIGURES`` — what ``python -m repro dynamics`` runs — then a hand-built
fault-bearing :class:`ScenarioSpec` to show the scheduling API.

Run:  python examples/dynamics_faults.py
"""

from repro.api import (
    FIGURES,
    ExperimentConfig,
    FaultSchedule,
    LinkDown,
    LinkUp,
    RouterReboot,
    ScenarioSpec,
    run_scenario,
)


def main() -> None:
    dynamics = FIGURES["dynamics"]
    at = dynamics.defaults
    print(f"rebooting router {at['router']} at t={at['reboot_at']:g}s of "
          f"{at['duration']:g}s, secret rotated\n")
    result = dynamics.run(schemes=("tva", "siff", "internet"), metrics=True)
    print(result.table())
    print()
    print("TVA dips, re-requests, and climbs back; SIFF's marks die")
    print("silently and it limps; the stateless Internet never notices.")
    print()

    # The same machinery takes arbitrary schedules.  Here the bottleneck
    # link flaps while the router reboots — every event is part of the
    # spec, so the run is cacheable and bit-reproducible.
    spec = ScenarioSpec(
        scheme="tva",
        attack="legacy",
        n_attackers=0,
        config=ExperimentConfig(duration=12.0),
        # The CLI string form "link-down:3.0:4.0:bottleneck" parses to
        # the same down/up pair (see repro.api.parse_fault).
        faults=FaultSchedule((
            LinkDown(at=3.0, link="bottleneck"),
            LinkUp(at=4.0, link="bottleneck"),
            RouterReboot(at=6.0, router="R1"),
        )),
    )
    run = run_scenario(spec)
    print(f"flap + reboot under TVA: completion "
          f"{run.fraction_completed:.2f} "
          f"({run.transfers_completed} transfers)")


if __name__ == "__main__":
    main()
