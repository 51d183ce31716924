"""The health watcher: rolling baselines, z-rules, record loading."""

import json

import pytest

from repro.errors import AnalysisError
from repro.experiments.watch import (
    WATCHABLE_METRICS,
    WatchRule,
    build_rules,
    load_records,
    tail_records,
    watch_records,
)


def _records(values, metric="rebuffer_ratio"):
    return [{"index": i, "label": f"run{i}", metric: value}
            for i, value in enumerate(values)]


class TestWatchRule:
    def test_unknown_metric_rejected(self):
        with pytest.raises(AnalysisError):
            WatchRule(metric="definitely_not_a_metric")

    @pytest.mark.parametrize("kwargs", [
        dict(z_threshold=0.0), dict(z_threshold=-1.0),
        dict(window=1), dict(min_baseline=1), dict(min_delta=-0.1),
        dict(z_threshold=float("nan")), dict(z_threshold=float("inf")),
        dict(min_delta=float("nan")), dict(min_delta=float("inf")),
        dict(window=4, min_baseline=5),
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(AnalysisError):
            WatchRule(metric="loss_rate", **kwargs)

    def test_direction(self):
        assert WatchRule(metric="delivered_rate_kbps").direction == "low"
        assert WatchRule(metric="rebuffer_ratio").direction == "high"

    def test_build_rules_one_per_metric(self):
        rules = build_rules(("rebuffer_ratio", "loss_rate"), z_threshold=2.5)
        assert [rule.metric for rule in rules] == [
            "rebuffer_ratio", "loss_rate"]
        assert all(rule.z_threshold == 2.5 for rule in rules)


class TestWatchRecords:
    def test_flat_baseline_never_alarms(self):
        report = watch_records(_records([0.01] * 20),
                               build_rules(("rebuffer_ratio",)))
        assert not report.tripped
        assert report.records_checked == 20

    def test_spike_trips_after_baseline(self):
        values = [0.01, 0.012, 0.011, 0.013, 0.9]
        report = watch_records(_records(values),
                               build_rules(("rebuffer_ratio",)))
        assert report.tripped
        (alert,) = report.alerts
        assert alert.index == 4
        assert alert.metric == "rebuffer_ratio"
        assert alert.value == pytest.approx(0.9)
        assert "ALERT" in alert.render()

    def test_no_alarm_during_calibration(self):
        # The spike arrives before min_baseline prior values exist.
        report = watch_records(_records([0.01, 0.9]),
                               build_rules(("rebuffer_ratio",)))
        assert not report.tripped

    def test_min_delta_floor_suppresses_numeric_dust(self):
        # Identical baseline, tiny absolute bump: huge z (std = 0) but
        # the deviation is below the floor.
        values = [0.010, 0.010, 0.010, 0.0105]
        report = watch_records(_records(values),
                               build_rules(("rebuffer_ratio",)))
        assert not report.tripped

    def test_direction_awareness(self):
        # Delivered rate alarms on a *drop*, not a rise.
        rules = build_rules(("delivered_rate_kbps",), min_delta=1.0)
        dropping = _records([200.0, 201.0, 199.0, 200.0, 20.0],
                            metric="delivered_rate_kbps")
        rising = _records([200.0, 201.0, 199.0, 200.0, 400.0],
                          metric="delivered_rate_kbps")
        assert watch_records(dropping, rules).tripped
        assert not watch_records(rising, rules).tripped

    def test_sustained_shift_alarms_once_then_becomes_normal(self):
        values = [0.01] * 4 + [0.5] * 8
        report = watch_records(_records(values),
                               build_rules(("rebuffer_ratio",)))
        assert len(report.alerts) == 1
        assert report.alerts[0].index == 4

    def test_missing_metric_skips_rule(self):
        records = _records([0.01] * 6, metric="loss_rate")
        report = watch_records(records, build_rules(("rebuffer_ratio",)))
        assert not report.tripped
        assert report.records_checked == 6

    def test_watchable_metrics_cover_defaults(self):
        assert "rebuffer_ratio" in WATCHABLE_METRICS
        assert "loss_rate" in WATCHABLE_METRICS


class TestRecordIO:
    def test_load_records_round_trip(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        rows = _records([0.1, 0.2])
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert load_records(str(path)) == rows

    def test_load_records_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(AnalysisError, match="unparseable"):
            load_records(str(path))

    def test_load_records_rejects_non_object_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(AnalysisError, match="JSON object"):
            load_records(str(path))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_records(str(tmp_path / "nope.jsonl"))

    def test_tail_records_reads_to_eof_with_zero_idle(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        rows = _records([0.1, 0.2, 0.3])
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert list(tail_records(str(path), idle_timeout=0)) == rows
