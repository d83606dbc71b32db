"""Tests for the experiment CLI."""

import pytest

from repro.cli import _parse_schemes, _parse_sweep, build_parser, main
from repro.scenarios import _sparkline


class TestParsing:
    def test_parse_schemes(self):
        assert _parse_schemes("tva,siff") == ["tva", "siff"]

    def test_parse_schemes_rejects_unknown(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_schemes("tva,bogus")

    def test_parse_sweep(self):
        assert _parse_sweep("1,10,100") == [1, 10, 100]

    def test_parser_builds_all_commands(self):
        parser = build_parser()
        for cmd in ("fig8", "fig9", "fig10", "fig11", "dynamics", "table1",
                    "fig12", "scenario", "sweep", "report"):
            args = parser.parse_args([cmd])
            assert callable(args.fn)

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestSparkline:
    def test_quiet_series_is_blank_ish(self):
        line = _sparkline([(t, 0.05) for t in range(0, 30)], 30.0)
        assert set(line) <= {" ", "."}

    def test_spike_shows_up(self):
        series = [(float(t), 0.3) for t in range(30)]
        series.append((15.0, 8.0))
        line = _sparkline(series, 30.0)
        assert "@" in line

    def test_length_is_bucket_count(self):
        assert len(_sparkline([], 10.0, buckets=42)) == 42


class TestEndToEnd:
    def test_scenario_command_runs(self, capsys):
        rc = main(["scenario", "--scheme", "tva", "--attack", "legacy",
                   "--attackers", "2", "--duration", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "completion fraction" in out

    def test_fig8_single_point(self, capsys):
        rc = main(["fig8", "--schemes", "internet", "--sweep", "1",
                   "--duration", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert "internet" in out

    def test_fig9_single_point(self, capsys):
        rc = main(["fig9", "--schemes", "tva", "--sweep", "2",
                   "--duration", "4"])
        assert rc == 0
        assert "Figure 9" in capsys.readouterr().out

    def test_fig11_runs_small(self, capsys):
        rc = main(["fig11", "--scheme", "tva", "--duration", "14"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "completion gaps" in out
        assert "sketch" in out

    def test_table1_runs_small(self, capsys):
        rc = main(["table1", "--packets", "600"])
        assert rc == 0
        assert "Regular with a cached entry" in capsys.readouterr().out

    def test_fig12_runs_small(self, capsys):
        rc = main(["fig12", "--packets", "600"])
        assert rc == 0
        assert "Figure 12" in capsys.readouterr().out


class TestBadInput:
    """What a spec rejects at construction reaches the shell as one
    ``error:`` line and exit status 2 — never a traceback — whichever
    subcommand built the spec."""

    @pytest.mark.parametrize("argv, complaint", [
        pytest.param(["scenario", "--scheme", "netfence",
                      "--scheme-opt", "beta=7"], "beta",
                     id="scenario-knob-out-of-range"),
        pytest.param(["scenario", "--scheme-opt", "request_fraction=2"],
                     "request_fraction", id="scenario-tva-knob-out-of-range"),
        pytest.param(["fig8", "--metrics-interval", "0"], "metrics_interval",
                     id="fig8-metrics-interval"),
        pytest.param(["dynamics", "--reboot-at", "30", "--duration", "5"],
                     "reboot_at", id="dynamics-reboot-after-end"),
        pytest.param(["sweep", "--metrics-interval", "-1"],
                     "metrics_interval", id="sweep-metrics-interval"),
        pytest.param(["fig11", "--metrics-interval", "0"],
                     "metrics_interval", id="fig11-metrics-interval"),
        pytest.param(["report", "--metrics-interval", "0"],
                     "metrics_interval", id="report-metrics-interval"),
        pytest.param(["scenario", "--scheme", "netfence",
                      "--scheme-opt", "bogus=7"], "bogus",
                     id="scenario-unknown-knob"),
        pytest.param(["scenario", "--name", "bogus"],
                     "unknown scenario 'bogus'", id="scenario-unknown-name"),
        pytest.param(["scenario", "--fault", "nonsense"],
                     "unknown fault kind", id="scenario-malformed-fault"),
        pytest.param(["fig8", "--schemes", "internet", "--sweep", "-3"],
                     "n_attackers must be >= 0", id="fig8-negative-sweep"),
        pytest.param(["scenario", "--attackers", "-2"],
                     "n_attackers must be >= 0",
                     id="scenario-negative-attackers"),
        pytest.param(["scenario", "--duration", "-1"],
                     "config.duration must be >= 0",
                     id="scenario-negative-duration"),
        pytest.param(["sweep", "--sweep", "1,-4"],
                     "n_attackers must be >= 0", id="sweep-negative-sweep"),
        # A non-finite time would never let a closed-loop run end.
        pytest.param(["scenario", "--scheme", "tva", "--attackers", "2",
                      "--duration", "inf"],
                     "config.duration must be finite", id="scenario-inf-duration"),
        pytest.param(["scenario", "--scheme", "tva", "--attackers", "2",
                      "--duration", "nan"],
                     "config.duration must be finite", id="scenario-nan-duration"),
        pytest.param(["fig8", "--sweep", "1", "--schemes", "tva",
                      "--duration", "nan"],
                     "config.duration must be finite", id="fig8-nan-duration"),
        pytest.param(["scenario", "--scheme-opt", "server_grant=[32000]",
                      "--attackers", "2", "--duration", "1"],
                     "server_grant", id="scenario-grant-one-number"),
        pytest.param(["scenario", "--scheme-opt", "server_grant=[0,10]",
                      "--attackers", "2", "--duration", "1"],
                     "server_grant", id="scenario-grant-zero-bytes"),
        pytest.param(["scenario", "--scheme-opt", "server_grant=[-5,10]",
                      "--attackers", "2", "--duration", "1"],
                     "server_grant", id="scenario-grant-negative-bytes"),
        pytest.param(["scenario", "--scheme", "siff",
                      "--scheme-opt", "server_grant=[32000,0]"],
                     "server_grant", id="scenario-siff-grant-zero-seconds"),
        # A fault naming no router or link of the topology is rejected
        # by the spec, before any simulator is built.
        pytest.param(["scenario", "--fault", "reboot:1:R9"],
                     "no router named 'R9'", id="scenario-fault-unknown-router"),
        pytest.param(["scenario", "--fault", "link-down:1:2:nolink"],
                     "no link named 'nolink'", id="scenario-fault-unknown-link"),
        pytest.param(["dynamics", "--router", "R9"],
                     "no router named 'R9'", id="dynamics-unknown-router"),
        pytest.param(["scenario", "--name", "tree-flood",
                      "--fault", "reboot:1:R1"],
                     "fault reboot at t=1: no router named 'R1'",
                     id="scenario-tree-has-no-R1"),
    ])
    def test_one_error_line_exit_2(self, capsys, tmp_path, argv, complaint):
        assert main(argv + ["--cache-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and complaint in line
        assert list(tmp_path.iterdir()) == []  # nothing ran, nothing cached

    @pytest.mark.parametrize("command", ["table1", "fig12", "report"])
    @pytest.mark.parametrize("packets", ["0", "-3"])
    def test_packets_must_be_positive(self, capsys, command, packets):
        with pytest.raises(SystemExit) as exc:
            main([command, "--packets", packets])
        assert exc.value.code == 2
        assert "--packets: must be >= 1" in capsys.readouterr().err

    def test_failures_inside_a_run_are_not_swallowed(self, monkeypatch):
        # A ValueError raised while a spec *runs* is not bad input: the
        # runner reports it as a SweepFailure and main lets that through.
        from repro.api import SweepFailure
        from repro.eval import runner

        def boom(spec):
            raise ValueError("raised inside the run")

        monkeypatch.setattr(runner, "run_spec", boom)
        with pytest.raises(SweepFailure, match="raised inside the run"):
            main(["scenario", "--attackers", "1", "--duration", "1",
                  "--jobs", "1", "--no-cache"])


class TestRunnerFlags:
    """The sweep-runner flags shared by the simulation subcommands."""

    def test_jobs_seeds_json(self, capsys):
        import json

        rc = main(["fig8", "--schemes", "internet", "--sweep", "1",
                   "--duration", "4", "--jobs", "1", "--seeds", "2",
                   "--json", "--no-cache"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["meta"]["seeds"] == 2
        (point,) = data["points"]
        assert point["n_seeds"] == 2
        assert len(point["runs"]) == 2

    def test_parallel_matches_serial(self, tmp_path, capsys):
        args = ["fig8", "--schemes", "tva,internet", "--sweep", "1,2",
                "--duration", "4", "--no-cache"]
        main(args + ["--jobs", "1"])
        serial = capsys.readouterr().out
        main(args + ["--jobs", "4"])
        assert capsys.readouterr().out == serial

    def test_cache_dir_warm_run(self, tmp_path, capsys):
        args = ["fig9", "--schemes", "tva", "--sweep", "2", "--duration",
                "4", "--cache-dir", str(tmp_path)]
        main(args)
        cold = capsys.readouterr().out
        assert list(tmp_path.glob("*/*.json"))  # results were cached
        main(args)
        assert capsys.readouterr().out == cold

    def test_scenario_json(self, capsys):
        import json

        rc = main(["scenario", "--scheme", "tva", "--attackers", "1",
                   "--duration", "4", "--json", "--no-cache"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scheme"] == "tva"
        assert data["transfers_completed"] > 0

    def test_fig11_json(self, capsys):
        import json

        rc = main(["fig11", "--scheme", "tva", "--duration", "14",
                   "--json", "--no-cache"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["pattern"] == "all_at_once"
        assert data["series"]


class TestMetricsFlag:
    """``--metrics`` attaches the repro.obs layer to the simulation runs."""

    def test_scenario_metrics_json(self, capsys):
        import json

        rc = main(["scenario", "--scheme", "tva", "--attackers", "2",
                   "--duration", "4", "--metrics", "--json", "--no-cache"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        metrics = data["metrics"]
        assert metrics["interval"] == 0.5
        assert "transport.completions" in metrics["finals"]
        assert "link.bottleneck.util.regular" in metrics["series"]

    def test_scenario_metrics_text_summary(self, capsys):
        rc = main(["scenario", "--scheme", "tva", "--attackers", "2",
                   "--duration", "4", "--metrics", "--no-cache"])
        assert rc == 0
        assert "metrics:" in capsys.readouterr().out

    def test_metrics_off_by_default(self, capsys):
        import json

        rc = main(["scenario", "--scheme", "tva", "--attackers", "1",
                   "--duration", "4", "--json", "--no-cache"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["metrics"] is None

    def test_fig8_metrics_json(self, capsys):
        import json

        rc = main(["fig8", "--schemes", "tva", "--sweep", "1",
                   "--duration", "4", "--metrics", "--json", "--no-cache"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        (point,) = data["points"]
        assert point["runs"][0]["metrics"]["finals"]

    def test_scenario_accepts_sfq_qdisc(self, capsys):
        import json

        rc = main(["scenario", "--scheme", "tva", "--attackers", "2",
                   "--duration", "4", "--regular-qdisc", "sfq",
                   "--json", "--no-cache"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["transfers_completed"] > 0


class TestReport:
    def test_report_writes_markdown(self, tmp_path, capsys):
        out = tmp_path / "r.md"
        rc = main(["report", "--schemes", "tva", "--sweep", "2",
                   "--duration", "4", "--fig11-duration", "14",
                   "--packets", "600", "--output", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "# TVA reproduction report" in text
        assert "Figure 8" in text and "Table 1" in text

    def test_report_metrics_section(self, tmp_path, capsys):
        out = tmp_path / "r.md"
        rc = main(["report", "--schemes", "tva", "--sweep", "2",
                   "--duration", "4", "--fig11-duration", "14",
                   "--packets", "600", "--metrics", "--output", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "## Metrics — deterministic observability" in text
        assert "| legacy | tva |" in text  # fig8's attack row
