"""The ``FIGURES`` registry: one entry per simulated paper artifact.

The literals below were captured from the hand-written parsers and spec
builders the registry replaced, so a default can no longer drift
silently: the flags' defaults, and every ``spec.key()`` of each default
grid, are pinned.
"""

import pytest

from repro.cli import build_parser, main
from repro.scenarios import FIGURES, FLOOD_FIGURES

SCHEMES = ("tva", "siff", "pushback", "internet", "netfence")

#: What ``repro <name>`` parses to with no flags.
DEFAULTS = {
    "fig8": dict(schemes=SCHEMES, sweep=(1, 2, 4, 10, 20, 40, 100),
                 duration=15.0, seed=1),
    "fig9": dict(schemes=SCHEMES, sweep=(1, 2, 4, 10, 20, 40, 100),
                 duration=15.0, seed=1),
    "fig10": dict(schemes=SCHEMES, sweep=(1, 2, 4, 10, 20, 40, 100),
                  duration=15.0, seed=1),
    "fig11": dict(scheme="tva", pattern="all_at_once", duration=50.0),
    "dynamics": dict(schemes=("tva", "siff", "internet", "netfence"),
                     reboot_at=8.0, duration=20.0, attackers=0, router="R1",
                     keep_secret=False, seed=1),
}

#: The first 12 hex digits of each ``spec.key()`` of the default grid.
KEYS = {
    "fig8": (
        "95833a207f15 5a3284642f32 f43adb4af60d 1e2ece604d42 dc1746fbc255 "
        "7655b2adbe33 31bf961faf26 73941fef3e83 a10de87ebadf f138ea0dbd3a "
        "7e23ec6cbda9 018741048779 ad3e9c838914 f66a0c597478 a7d8f90432e7 "
        "0a7868b245c5 4c3ab4965ded ecf69a9accb3 995663b243ff d007050d8bfa "
        "86f2e8183ea7 42ae805a01c7 97498571483e 956fbd09e6d0 efb644fb8dd3 "
        "d46a75d140c3 78aac16b8f2e d156d55ce0fe 7c147f230759 8b5662c57171 "
        "c63f542cc9ce 1c01655ae171 dd951b85cc04 047cd7f87501 3ac4e81a29e5"
    ),
    "fig9": (
        "e965cdfdaf89 4243bd921e97 ec4c080936df ec59dbcd6407 a54a14678d44 "
        "4215f7986b98 6da3dca0d49f 66fe4ee8a378 a7149822af8e fc75d3c29cbb "
        "e4ca22ef5960 7e26eb0fa8da ebbf26c8d438 140a78cbbacc e7523d2e4891 "
        "6f675e1956d1 753d2beb0ff0 66f2974d713a 97b90cf3bac0 f18ac58d6678 "
        "4daae7a9d6ff d2e8e6adc136 1252f639de50 640ee94883ec 5b31c0099708 "
        "b8272259441c 83a4fe6990a2 6b91f9c12193 00e1658b2be2 ea9b168a1854 "
        "679c1365c6db ee3059a2d1f8 45b25ae69cb8 d703bec39e7b 63b20d7ad2e9"
    ),
    "fig10": (
        "c1d32059b051 c0b55fa29274 7bbf5fcb97e2 d607e2cfe544 35a88ba01d96 "
        "069870426d01 92c04d9838fe fbaee3e41f04 c53ec1d20fb5 1a539e4f9e9b "
        "bb98de88f362 b0d802747481 c8cf58331f68 8a90ac546138 36afcd0857ba "
        "6c2f40f9cfd0 ae8c214c5286 2f7f7c51ea81 1580dc2dcf61 35fdb3796671 "
        "3feb1353f9b0 a78c4c042b37 ffbd77ee90ac 36f4f853dfd9 54c3f4a34321 "
        "5f774af9eed8 6e2c232b1263 aad6d0811370 44ebdedfcb52 fa2632457647 "
        "8c75fd3f8015 1d49b9cc7b0c f6767e8ed0fd 73c9ee1f4c04 f84d57a35f08"
    ),
    "fig11": "61cb98408ee4",
    "dynamics": "66b70e4e339d 4ec0becbec09 56c62f18bd00 98943a7366e8",
}


def test_one_entry_per_simulated_artifact():
    assert list(FIGURES) == list(DEFAULTS)
    assert [(attack, FLOOD_FIGURES[attack].name) for attack in FLOOD_FIGURES] \
        == [("legacy", "fig8"), ("request", "fig9"), ("colluder", "fig10")]


@pytest.mark.parametrize("name", list(DEFAULTS))
def test_parsed_flags_carry_exactly_the_entry_defaults(name):
    args = vars(build_parser().parse_args([name]))
    figure = FIGURES[name]
    assert figure.defaults == DEFAULTS[name]
    assert {key: args[key] for key in figure.defaults} == figure.defaults


@pytest.mark.parametrize("name", list(KEYS))
def test_default_grid_keys_are_pinned(name):
    keys = [spec.key()[:12] for spec in FIGURES[name].specs()]
    assert keys == KEYS[name].split()


def test_run_returns_what_the_subcommand_renders(tmp_path, capsys):
    assert main(["dynamics", "--schemes", "internet", "--reboot-at", "1",
                 "--duration", "3", "--cache-dir", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    dynamics = FIGURES["dynamics"]
    params = dict(dynamics.defaults, schemes=("internet",), reboot_at=1.0,
                  duration=3.0)
    record = dynamics.run(**params)
    assert dynamics.text(dynamics.title, params, record) + "\n" == printed


def test_report_is_the_subcommands_output(tmp_path, capsys):
    cache = ["--cache-dir", str(tmp_path / "cache")]
    grid = ["--schemes", "tva", "--sweep", "2", "--duration", "4"]
    out = tmp_path / "report.md"
    assert main(["report", *grid, "--fig11-duration", "14", "--packets",
                 "600", "--output", str(out), *cache]) == 0
    report = out.read_text()
    commands = [[name, *grid] for name in ("fig8", "fig9", "fig10")]
    commands += [["fig11", "--scheme", "tva", "--pattern", pattern,
                  "--duration", "14"]
                 for pattern in ("all_at_once", "staggered")]
    capsys.readouterr()
    for argv in commands:
        assert main(argv + cache) == 0
        captured = capsys.readouterr()
        # Every spec is a hit on the report's cache...
        assert "(cached)" in captured.err and "done   " not in captured.err
        # ...and what the subcommand prints is a section of the report.
        assert captured.out in report, argv
