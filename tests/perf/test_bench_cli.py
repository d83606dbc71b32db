"""End-to-end tests for the ``repro bench`` CLI."""

import json

from repro.cli import main
from repro.perf.harness import SCHEMA


def test_bench_writes_report_and_checks_guard(tmp_path, capsys):
    guard = tmp_path / "guard.json"
    rc = main(["bench", "--guard", str(guard), "--update-guard"])
    assert rc == 0
    assert json.loads(guard.read_text())["schema"] == SCHEMA
    assert "fig8_e2e" in capsys.readouterr().out  # the op-count table

    rc = main(["bench", "--guard", str(guard)])
    assert rc == 0
    assert "op-count guard OK" in capsys.readouterr().out


def test_bench_fails_on_guard_mismatch(tmp_path, capsys):
    guard = tmp_path / "guard.json"
    assert main(["bench", "--guard", str(guard),
                 "--update-guard"]) == 0
    data = json.loads(guard.read_text())
    data["workloads"]["event_loop"]["events_fired"] += 5
    guard.write_text(json.dumps(data))
    rc = main(["bench", "--guard", str(guard)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "event_loop.events_fired" in err
    assert "--update-guard" in err


def test_bench_without_guard_file_still_succeeds(tmp_path, capsys):
    rc = main(["bench", "--guard", str(tmp_path / "missing.json")])
    assert rc == 0
    assert "no op-count guard" in capsys.readouterr().out

