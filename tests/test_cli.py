"""CLI tests (fast paths; the study command is covered at tiny scale)."""

import pytest

from repro.cli import main


class TestTable1Command:
    def test_prints_the_clip_table(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "284.0/323.1" in out
        assert "Movie clip" in out


class TestGenerateCommand:
    def test_generates_and_profiles(self, capsys):
        assert main(["generate", "wmp", "307.2", "10"]) == 0
        out = capsys.readouterr().out
        assert "mediaplayer" in out
        assert "67%" in out

    def test_exports_pcap_and_csv(self, tmp_path, capsys):
        pcap_path = str(tmp_path / "flow.pcap")
        csv_path = str(tmp_path / "flow.csv")
        assert main(["generate", "real", "100", "10",
                     "--pcap", pcap_path, "--csv", csv_path]) == 0
        from repro.capture.pcap import read_pcap
        from repro.capture.serialize import read_csv

        assert len(read_pcap(pcap_path)) > 0
        assert len(read_csv(csv_path)) > 0

    @pytest.mark.parametrize("argv, counts", [
        (["wmp", "307.2", "0.05"], "2 packets in 1 datagram,"),
        (["real", "20", "0.3"], "2 packets in 2 datagrams,"),
    ])
    def test_short_flow_exits_two_before_writing(self, argv, counts,
                                                 tmp_path, capsys):
        pcap_path = tmp_path / "flow.pcap"
        csv_path = tmp_path / "flow.csv"
        assert main(["generate", *argv, "--seed", "1", "--pcap",
                     str(pcap_path), "--csv", str(csv_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(
            "error: flow too short to fit a turbulence profile: ")
        assert counts in captured.err
        assert not pcap_path.exists()
        assert not csv_path.exists()


class TestPcapInfoCommand:
    def test_summarizes_a_file(self, tmp_path, capsys):
        pcap_path = str(tmp_path / "flow.pcap")
        main(["generate", "wmp", "307.2", "10", "--pcap", pcap_path])
        capsys.readouterr()
        assert main(["pcap-info", pcap_path]) == 0
        out = capsys.readouterr().out
        assert "fragmentation: 66" in out
        assert "packets" in out


class TestFigureCommand:
    def test_unknown_figure_errors(self, capsys):
        assert main(["figure", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown figure" in err

    def test_single_figure_small_scale(self, capsys):
        assert main(["figure", "fig02", "--scale", "0.12",
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "CDF of Number of Hops" in out


class TestProbeCommand:
    def test_probe_reports_friendliness(self, capsys):
        assert main(["probe", "wmp", "307.2", "0.10",
                     "--duration", "15"]) == 0
        out = capsys.readouterr().out
        assert "offered load" in out
        assert "friendliness index" in out

    def test_probe_with_scaling(self, capsys):
        assert main(["probe", "wmp", "307.2", "0.05",
                     "--duration", "15", "--scaling"]) == 0
        out = capsys.readouterr().out
        assert "final rate scale" in out


class TestBoundaryCommand:
    def test_boundary_prints_profiles(self, capsys):
        assert main(["boundary", "--clients", "4",
                     "--duration", "20", "--kbps", "120"]) == 0
        out = capsys.readouterr().out
        assert "realplayer" in out
        assert "cliff factor" in out


class TestFigureCsvOption:
    def test_writes_csv(self, tmp_path, capsys):
        csv_path = str(tmp_path / "fig.csv")
        assert main(["figure", "fig02", "--scale", "0.12",
                     "--seed", "5", "--csv", csv_path]) == 0
        with open(csv_path) as stream:
            assert "series,x,y" in stream.read()


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestTelemetryCommand:
    def test_full_instrumented_sweep_and_exports(self, tmp_path, capsys):
        import json

        json_path = tmp_path / "summary.json"
        events_path = tmp_path / "events.jsonl"
        series_path = tmp_path / "series.csv"
        code = main(["telemetry", "--seed", "5", "--scale", "0.05",
                     "--json", str(json_path),
                     "--events", str(events_path),
                     "--series-csv", str(series_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "pair runs" in out
        assert "per-hop queue depth" in out
        assert "rebuffer" in out.lower() or "playout" in out.lower()

        # The JSON export round-trips through its own exporter.
        text = json_path.read_text()
        loaded = json.loads(text)
        assert json.dumps(loaded, sort_keys=True, indent=2) == text
        assert loaded["counters"]
        assert any(entry["name"] == "queue.drops" or
                   entry["name"].startswith("link.")
                   for entry in loaded["counters"])

        lines = events_path.read_text().splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        assert {"type", "time", "seq"} <= set(records[0])
        assert any(record["type"] == "stream_start" for record in records)

        series_lines = series_path.read_text().splitlines()
        assert series_lines[0] == "name,labels,time,value"
        assert any(line.startswith("queue.bytes,") for line in series_lines)

    def test_profile_flag_prints_hot_callbacks(self, capsys):
        code = main(["telemetry", "--seed", "5", "--scale", "0.01",
                     "--profile", "--top", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "events/s" in out
        assert "_deliver" in out or "callback" in out.lower()

    def test_nonpositive_top_is_a_usage_error(self, capsys):
        assert main(["telemetry", "--top", "0"]) == 2
        assert "--top" in capsys.readouterr().err

    def test_run_without_telemetry_exits_nonzero(self, monkeypatch, capsys):
        import repro.experiments.runner as runner

        # A study that never touches the telemetry facade records no
        # counters and no events; the CLI must refuse to summarize it.
        monkeypatch.setattr(runner, "run_spec", lambda spec, **kwargs: [])
        assert main(["telemetry", "--seed", "5", "--scale", "0.01"]) == 1
        assert "no telemetry" in capsys.readouterr().err


class TestSpansCommand:
    def test_small_study_with_exports(self, tmp_path, capsys):
        import json

        json_path = tmp_path / "summary.json"
        chrome_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "spans.jsonl"
        code = main(["spans", "--seed", "2002", "--scale", "0.03",
                     "--top", "2",
                     "--json", str(json_path),
                     "--chrome-trace", str(chrome_path),
                     "--jsonl", str(jsonl_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "latency attribution" in out
        assert "buffer wait" in out
        assert "slowest ADUs (top 2)" in out

        # The summary export validates against the checked-in schema
        # exactly as the CI smoke step does.
        import importlib.util
        import pathlib

        script = (pathlib.Path(__file__).resolve().parents[1]
                  / "scripts" / "validate_spans_export.py")
        spec = importlib.util.spec_from_file_location("validator", script)
        validator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(validator)
        schema_path = (pathlib.Path(__file__).resolve().parents[1]
                       / "docs" / "schemas" / "spans_summary.schema.json")
        document = json.loads(json_path.read_text())
        schema = json.loads(schema_path.read_text())
        assert validator.validate(document, schema) == []
        assert document["adu_count"] > 0
        assert set(document["aggregate"]) == {"real", "wmp"}

        trace = json.loads(chrome_path.read_text())
        assert {event["ph"] for event in trace["traceEvents"]} == {"M", "X"}
        assert all(json.loads(line)["kind"]
                   for line in jsonl_path.read_text().splitlines())

    def test_nonpositive_top_is_a_usage_error(self, capsys):
        assert main(["spans", "--top", "0"]) == 2
        assert "--top" in capsys.readouterr().err

    def test_run_without_traces_exits_nonzero(self, monkeypatch, capsys):
        import repro.experiments.runner as runner

        monkeypatch.setattr(runner, "run_spec", lambda spec, **kwargs: [])
        assert main(["spans", "--seed", "5", "--scale", "0.01"]) == 1
        assert "no completed ADU traces" in capsys.readouterr().err


class TestCcCommand:
    def test_list_prints_every_controller(self, capsys):
        assert main(["cc", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("aimd", "gcc", "null"):
            assert name in out

    def test_aimd_run_prints_state_summary(self, capsys):
        code = main(["cc", "aimd", "--scale", "0.06", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "state samples" in out
        assert "fingerprint cc-aimd:" in out
        assert "aimd/real" in out
        assert "aimd/wmp" in out

    def test_null_controller_empty_report_exits_one(self, capsys):
        assert main(["cc", "null", "--scale", "0.06"]) == 1
        err = capsys.readouterr().err
        assert "no cc_state samples" in err
        assert "(the null controller arms nothing)" in err

    def test_armed_controller_empty_report_is_not_called_null(self, capsys):
        # Clips too short to send one feedback report: AIMD is armed
        # but samples nothing.
        assert main(["cc", "aimd", "--scale", "0.001"]) == 1
        err = capsys.readouterr().err
        assert err == ("error: controller 'aimd' recorded no cc_state "
                       "samples; nothing to summarize\n")


class TestModernScorecardCommand:
    def test_then_vs_now_table_and_svg(self, tmp_path, capsys):
        svg_path = tmp_path / "modern.svg"
        code = main(["scorecard", "--modern", "--scale", "0.03",
                     "--transports", "2002,abr",
                     "--svg", str(svg_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "metric (then vs. now)" in out
        assert "fig04/05" in out
        assert "startup delay" in out
        # Every Table 1 clip set gets its own delivered-rate row.
        for number in range(1, 7):
            assert f"set {number} delivered" in out
        assert svg_path.read_text().startswith("<svg")


class TestTooSmallToAnalyse:
    """Inputs the simulation accepts but the analysis cannot use: one
    ``error:`` line on stderr, status 2, and nothing on stdout."""

    @pytest.mark.parametrize("argv, message", [
        (["boundary", "--clients", "1"],
         "error: a boundary study needs at least 2 clients"),
        (["boundary", "--clients", "2", "--duration", "0.05"],
         "error: flow too short to fit a turbulence profile: "),
        (["boundary", "--clients", "2", "--kbps", "0.001",
          "--duration", "1"],
         "error: flow too short to fit a turbulence profile: "),
        (["figure", "fig09", "--scale", "0.001"],
         "error: fig09: need at least two arrivals for interarrivals"),
        (["figure", "sec4", "--scale", "0.001"],
         "error: sec4: flow too short to fit a turbulence profile: "),
        (["study", "--scale", "0.001", "--no-cache"],
         "error: fig09: need at least two arrivals for interarrivals"),
        (["scorecard", "--scale", "0.001"],
         "error: fig09: WMP interarrival CDF steps at 1.0, Real's is "
         "gradual: need at least two arrivals for interarrivals"),
        (["scorecard", "--modern", "--scale", "0.001"],
         "error: fig06-09: interarrival CV: need at least two arrivals "
         "for interarrivals"),
        (["scorecard", "--scale", "0.01"],
         "error: fig12: WMP app receives ~10-packet batches once per "
         "second: "),
    ])
    def test_exits_two_with_one_line(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(message)


#: Every command that builds the Table 1 library from ``--scale``.
SCALED_COMMANDS = [["study", "--no-cache"], ["figure", "fig01"],
                   ["telemetry"], ["spans"], ["faults"], ["cc", "aimd"],
                   ["repair"], ["validate"], ["scorecard"]]


class TestRefusedBelowTheCli:
    """Inputs a layer under the CLI refuses: status 2 and one ``error:``
    line, not an exception out of ``main``."""

    @pytest.mark.parametrize("argv", SCALED_COMMANDS,
                             ids=[argv[0] for argv in SCALED_COMMANDS])
    def test_scale_too_large_for_a_clip(self, argv, capsys):
        # Every Table 1 clip's length overflows to infinity.
        assert main(argv + ["--scale", "1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: duration must be positive and "
                                "finite, got inf\n")

    @pytest.mark.parametrize("argv, message", [
        (["boundary", "--duration", "1e308"],
         "a 1e+308 s clip at 150 Kbps is too long to encode"),
        (["boundary", "--kbps", "1e308"],
         "encoded rate must be positive and finite, got 1e+308 Kbps"),
        (["probe", "wmp", "300", "0.01", "--duration", "1e308"],
         "a 1e+308 s clip at 300 Kbps is too long to encode"),
        (["probe", "real", "0.001", "0.5", "--duration", "1"],
         "probe stream delivered nothing"),
        (["probe", "wmp", "300", "0.01", "--duration", "5",
          "--rtt", "1e308"],
         "no statistics: playback never started"),
        (["boundary", "--clients", "70000", "--duration", "5"],
         "subnet 130.215.0.0/16 exhausted"),
        (["generate", "wmp", "1e308", "5"],
         "a 5 s flow at 1e+308 Kbps is too long to generate"),
        (["generate", "wmp", "300", "1e308"],
         "a 1e+308 s flow at 300 Kbps is too long to generate"),
    ])
    def test_exits_two_with_one_line(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestBoundsBeyondADeque:
    """A ring or window bound above ``sys.maxsize`` holds everything."""

    def test_ring_capacity(self, capsys):
        assert main(["telemetry", "--scale", "0.01",
                     "--ring-capacity", str(2 ** 63)]) == 0
        assert "dropped=" not in capsys.readouterr().err

    def test_watch_window(self, tmp_path, capsys):
        path = TestWatchCommand._write(tmp_path, [0.01] * 4)
        assert main(["watch", path, "--window", str(2 ** 63)]) == 0
        assert "no anomalies" in capsys.readouterr().out


class TestScorecardModernOnlyFlags:
    @pytest.mark.parametrize("flag", ["--transports", "--svg"])
    def test_flag_without_modern_exits_two(self, flag, tmp_path, capsys):
        value = (str(tmp_path / "card.svg") if flag == "--svg"
                 else "2002,abr")
        assert main(["scorecard", "--scale", "0.02", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} needs --modern\n"
        assert not (tmp_path / "card.svg").exists()


class TestBadArgumentExitCodes:
    """Every subcommand's bad-argument paths: stderr message, status 2."""

    @pytest.mark.parametrize("argv,needle", [
        (["study", "--scale", "0"], "--scale"),
        (["study", "--scale", "-1"], "--scale"),
        (["study", "--jobs", "-1"], "--jobs"),
        (["telemetry", "--scale", "0"], "--scale"),
        (["telemetry", "--jobs", "-2"], "--jobs"),
        (["spans", "--scale", "-0.5"], "--scale"),
        (["spans", "--jobs", "-1"], "--jobs"),
        (["figure", "fig02", "--scale", "0"], "--scale"),
        (["scorecard", "--scale", "0"], "--scale"),
        (["generate", "wmp", "0", "10"], "kbps"),
        (["generate", "wmp", "-5", "10"], "kbps"),
        (["generate", "wmp", "100", "0"], "duration"),
        (["probe", "wmp", "0", "0.1"], "kbps"),
        (["probe", "wmp", "100", "1.5"], "loss"),
        (["probe", "wmp", "100", "-0.1"], "loss"),
        (["probe", "wmp", "100", "0.1", "--rtt", "0"], "--rtt"),
        (["probe", "wmp", "100", "0.1", "--duration", "0"], "--duration"),
        (["boundary", "--clients", "0"], "--clients"),
        (["boundary", "--duration", "0"], "--duration"),
        (["boundary", "--kbps", "0"], "--kbps"),
        (["faults", "no-such-scenario"], "unknown fault scenario"),
        (["faults", "link-flap", "--scale", "0"], "--scale"),
        (["validate", "--scale", "0"], "--scale"),
        (["validate", "--jobs", "-1"], "--jobs"),
        (["validate", "--cc", "vegas"], "unknown congestion controller"),
        (["cc"], "controller name is required"),
        (["cc", "bbr2"], "unknown congestion controller"),
        (["cc", "aimd", "--scale", "0"], "--scale"),
        (["cc", "aimd", "--set", "99"], "no clip set 99"),
        (["scorecard", "--modern", "--scale", "0"], "--scale"),
        (["scorecard", "--modern", "--jobs", "-1"], "--jobs"),
        (["scorecard", "--modern", "--transports", "2002,quic"],
         "unknown transport"),
        (["telemetry", "--top", "0"], "--top"),
        (["spans", "--top", "0"], "--top"),
    ])
    def test_bad_argument_exits_two(self, argv, needle, capsys):
        assert main(argv) == 2
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "NaN", "Infinity"])
    @pytest.mark.parametrize("argv,needle", [
        (["study", "--scale", "{}"], "--scale"),
        (["validate", "--scale", "{}"], "--scale"),
        (["probe", "wmp", "{}", "0"], "kbps"),
        (["probe", "wmp", "100", "0", "--rtt", "{}"], "--rtt"),
        (["probe", "wmp", "100", "0", "--duration", "{}"], "--duration"),
        (["boundary", "--kbps", "{}"], "--kbps"),
        (["boundary", "--duration", "{}"], "--duration"),
        (["generate", "wmp", "{}", "10"], "kbps"),
        (["generate", "wmp", "100", "{}"], "duration"),
    ])
    def test_non_finite_float_exits_two(self, argv, needle, bad, capsys):
        # float() parses these, and NaN passes a plain `<= 0` check.
        assert main([arg.format(bad) for arg in argv]) == 2
        assert (f"{needle} must be positive and finite"
                in capsys.readouterr().err)

    def test_pcap_info_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["pcap-info", str(tmp_path / "nope.pcap")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_pcap_info_garbage_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "garbage.pcap"
        path.write_bytes(b"this is not a capture file at all")
        assert main(["pcap-info", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["no-such-command"])
        assert excinfo.value.code == 2


#: Every flag that names an output file, after the arguments that
#: reach it.
OUTPUT_FLAGS = [
    (["study", "--scale", "0.02", "--no-cache"], "--html"),
    (["study", "--scale", "0.02"], "--stream-jsonl"),
    (["figure", "fig01", "--scale", "0.02"], "--csv"),
    (["generate", "wmp", "100", "1"], "--pcap"),
    (["generate", "wmp", "100", "1"], "--csv"),
    (["scorecard", "--modern", "--scale", "0.02"], "--svg"),
    (["telemetry", "--scale", "0.02"], "--json"),
    (["telemetry", "--scale", "0.02"], "--events"),
    (["telemetry", "--scale", "0.02"], "--series-csv"),
    (["spans", "--scale", "0.02"], "--json"),
    (["spans", "--scale", "0.02"], "--chrome-trace"),
    (["spans", "--scale", "0.02"], "--jsonl"),
    (["repair", "--scale", "0.02"], "--json"),
    (["faults", "--scale", "0.02"], "--events"),
]


class TestOutputPaths:
    """An output path that cannot be written exits 2 before any work."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        from repro.core import generator
        from repro.experiments import runner

        def refuse(*args, **kwargs):
            raise AssertionError("work ran before the output path check")

        monkeypatch.setattr(runner, "run_spec", refuse)
        monkeypatch.setattr(runner, "run_pair_experiment", refuse)
        monkeypatch.setattr(generator, "generate_flow", refuse)

    @pytest.mark.parametrize(
        "argv,flag", OUTPUT_FLAGS,
        ids=[f"{argv[0]}{flag}" for argv, flag in OUTPUT_FLAGS])
    def test_missing_directory_exits_two(self, argv, flag, tmp_path,
                                         no_work, capsys):
        target = tmp_path / "missing" / "out"
        assert main(argv + [flag, str(target)]) == 2
        err = capsys.readouterr().err
        assert f"{flag}: cannot write {target}" in err
        assert "Traceback" not in err

    def test_existing_file_keeps_its_bytes(self, tmp_path, no_work, capsys):
        kept = tmp_path / "kept.json"
        kept.write_text("previous run")
        assert main(["telemetry", "--json", str(kept),
                     "--events", str(tmp_path / "missing" / "e")]) == 2
        assert "--events" in capsys.readouterr().err
        assert kept.read_text() == "previous run"

    def test_directory_is_refused(self, tmp_path, no_work, capsys):
        assert main(["figure", "fig01", "--csv", str(tmp_path)]) == 2
        assert "--csv" in capsys.readouterr().err


class TestStudyStreamingOptions:
    def test_progress_and_stream_jsonl(self, tmp_path, capsys):
        import json

        path = tmp_path / "runs.jsonl"
        # --stream-jsonl bypasses the caches, so this is always a
        # fresh simulation with live heartbeats.
        assert main(["study", "--scale", "0.1", "--seed", "3",
                     "--progress", "--stream-jsonl", str(path)]) == 0
        captured = capsys.readouterr()
        assert "peak rss" in captured.out
        assert "# streamed:" in captured.out
        assert "cache bypassed" in captured.out
        # Non-TTY progress: one deterministic done-line per run, in
        # library order, on stderr.
        lines = [line for line in captured.err.splitlines()
                 if line.startswith("run ")]
        assert len(lines) == 13
        assert lines[0].startswith("run 1/13 done ")
        assert lines[-1].startswith("run 13/13 done ")
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert len(records) == 13
        assert records[0]["index"] == 0
        for key in ("label", "rebuffer_ratio", "loss_rate",
                    "delivered_rate_kbps", "events_folded"):
            assert key in records[0]

    def test_pool_writes_the_sequential_records(self, tmp_path, capsys):
        # Both executors send heartbeats from the parent in library
        # order, so the record tap and the done-lines match byte for
        # byte.
        outputs = []
        for jobs in ("1", "2"):
            path = tmp_path / f"runs-{jobs}.jsonl"
            assert main(["study", "--scale", "0.1", "--seed", "3",
                         "--jobs", jobs, "--progress",
                         "--stream-jsonl", str(path)]) == 0
            lines = [line for line in capsys.readouterr().err.splitlines()
                     if line.startswith("run ")]
            outputs.append((path.read_bytes(), lines))
        assert len(outputs[0][1]) == 13
        assert outputs[1] == outputs[0]

    def test_unwritable_stream_path_exits_two(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "runs.jsonl"
        assert main(["study", "--stream-jsonl", str(target)]) == 2
        assert "cannot write" in capsys.readouterr().err


class TestWatchCommand:
    @staticmethod
    def _write(tmp_path, values, metric="rebuffer_ratio"):
        import json

        path = tmp_path / "stream.jsonl"
        path.write_text("".join(
            json.dumps({"index": i, "label": f"run{i}", metric: value})
            + "\n" for i, value in enumerate(values)))
        return str(path)

    def test_clean_records_exit_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, [0.01] * 8)
        assert main(["watch", path]) == 0
        out = capsys.readouterr().out
        assert "no anomalies" in out
        assert "8 run records" in out

    def test_spike_exits_one_with_alert(self, tmp_path, capsys):
        path = self._write(tmp_path, [0.01, 0.012, 0.011, 0.013, 0.9])
        assert main(["watch", path]) == 1
        out = capsys.readouterr().out
        assert "ALERT rebuffer_ratio" in out
        assert "1 watch rule trip" in out

    def test_follow_mode_reads_static_file(self, tmp_path, capsys):
        path = self._write(tmp_path, [0.01] * 6)
        assert main(["watch", path, "--follow",
                     "--idle-timeout", "0"]) == 0
        assert "no anomalies" in capsys.readouterr().out

    def test_unknown_metric_exits_two(self, tmp_path, capsys):
        path = self._write(tmp_path, [0.01])
        assert main(["watch", path, "--metric", "bogus"]) == 2
        assert "unknown watch metric" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["watch", str(path)]) == 1
        assert "no run records" in capsys.readouterr().err

    def test_garbage_line_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"index": 0}\nnot json\n')
        assert main(["watch", str(path)]) == 1
        assert "unparseable" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,needle", [
        (["--z", "0"], "z-threshold"),
        (["--window", "1"], "window"),
        (["--min-baseline", "1"], "min-baseline"),
        (["--min-delta", "-0.1"], "min-delta"),
        (["--metric", " , "], "--metric"),
        (["--idle-timeout", "-1"], "--idle-timeout"),
        (["--z", "nan"], "z-threshold"),
        (["--z", "inf"], "z-threshold"),
        (["--min-delta", "nan"], "min-delta"),
        (["--min-delta", "inf"], "min-delta"),
        (["--idle-timeout", "nan"], "--idle-timeout"),
        (["--window", "4", "--min-baseline", "5"], "min-baseline"),
    ])
    def test_bad_knobs_exit_two(self, tmp_path, argv, needle, capsys):
        path = self._write(tmp_path, [0.01])
        assert main(["watch", path] + argv) == 2
        assert needle in capsys.readouterr().err


class TestTelemetryRingCapacity:
    def test_dropped_warning_on_overflow(self, capsys):
        assert main(["telemetry", "--scale", "0.02", "--seed", "3",
                     "--ring-capacity", "200"]) == 0
        err = capsys.readouterr().err
        assert "dropped=" in err
        assert "--ring-capacity" in err

    def test_negative_capacity_exits_two(self, capsys):
        assert main(["telemetry", "--ring-capacity", "-5"]) == 2
        assert "--ring-capacity" in capsys.readouterr().err
