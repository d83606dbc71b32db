"""The ``FIGURES`` registry: one entry per simulated paper artifact.

The literals below were captured from the hand-written parsers and spec
builders the registry replaced, so a default can no longer drift
silently: the flags' defaults, and every ``spec.key()`` of each default
grid, are pinned.  The keys were re-captured when the config's copies of
the scheme knobs were deleted; the specs' other fields were unchanged.
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
        "494473be7461 e41fc7891c7b 9097c6890c9b 5e4c0eaa02e7 3406ecaf74fd "
        "178e7dea936e d5cab09be2f8 c995ea17ccaf 5892ddac7bd4 6390ad02860f "
        "352e2adc80f0 7829b31f54c7 3db94d98d5c0 e134ba21a479 7045ff08c3a1 "
        "eb1c0ff4ca26 4aafc3f28225 389049191c1d 9b8baf85183b 64266deb1fda "
        "54ceb06888b3 14626d1707b8 7a5bdd2c7913 4333bed5fd99 a83196381e3f "
        "43111e872f4d ef3a48cf41e3 54d7fbb2b07c b9ab72eb0f2f 08f9b839a265 "
        "fd33aae6d15b ea76fbfc6f69 ca2914395d8b 810a5b14caae 74288c23f6cd"
    ),
    "fig9": (
        "870328928ad0 db3eb0038e7b 7040c1515d0f 85e9e23ec3bb 9449e629d41b "
        "12806472ff45 e7e8a502f241 d83ae5a99fea 9f94655c6f88 12021e8cfb0e "
        "64f880a45478 97ed82c09dda 56bb17bf8fea ff894123f0b9 97be8c2084ab "
        "86d70681d5e6 3a48a5b4f531 366c21a950be 1d2ec773936c f41af7c8c59a "
        "61be095b76c8 26582e9f6ef0 dab90bfdd091 8edf69f2968a d08049cfb832 "
        "5e9bc296b1da aaad83663e6a 51724a330685 5bdea009298e 32f5ea5aed92 "
        "7fcd9c688c93 23d8a9d0fd83 0c757f24214c caf4c78e0195 bff62f82faa6"
    ),
    "fig10": (
        "d95864d39626 e4dc83ab63cd b05c5d64f3e8 8afaf1400ecb 2c6c1326c92b "
        "4e588b572cdb 64b0e599822c ff5162b1774f 52a707e26d85 1a98db8e0333 "
        "0252dd5a0c48 240f073cf3a8 50bc549c0f83 6c3983ca1b8e ac787cb670e7 "
        "dae0d143d746 ccb94ead3b92 98643f698673 d9cdf4a32be7 50bf230ab11c "
        "fc7fcdb9fc05 5beca1655d19 a2fd2ed3087c ec508a65bb4c d981de5f6f70 "
        "c638ba0f31c8 4b3deb10513e ee822609ce14 b726185c22e5 4c9bf6f36c95 "
        "4930ae48c3bb 3b0934e230b9 4008cd5589a5 0d623e64b944 d1f142a57736"
    ),
    "fig11": "5c3e67732cab",
    "dynamics": "4929bfd17462 69719b94206d ec6027f143db d99bff73c762",
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
def test_default_grid_spec_keys_are_pinned(name):
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
