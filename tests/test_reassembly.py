"""Fragment-train grouping and fragmentation-percentage tests."""

import pytest

from repro.capture.reassembly import (
    first_of_group_times,
    fragmentation_percent,
    group_datagrams,
    group_size_pattern,
)
from repro.capture.trace import Trace
from repro.errors import AnalysisError

from .helpers import make_fragment_train, make_record


def interleaved_trace():
    """Two fragment trains with an unfragmented packet in between."""
    records = make_fragment_train(start_number=1, start_time=0.0,
                                  identification=10)
    records.append(make_record(number=4, time=0.05, identification=11,
                               ip_bytes=928))
    records += make_fragment_train(start_number=5, start_time=0.1,
                                   identification=12)
    return Trace(records)


class TestGrouping:
    def test_groups_found_in_order(self):
        groups = group_datagrams(interleaved_trace())
        assert len(groups) == 3
        assert [g.packet_count for g in groups] == [3, 1, 3]

    def test_singleton_group_for_unfragmented(self):
        groups = group_datagrams(interleaved_trace())
        assert not groups[1].is_fragmented
        assert groups[1].complete

    def test_fragment_group_properties(self):
        groups = group_datagrams(interleaved_trace())
        train = groups[0]
        assert train.is_fragmented
        assert train.complete
        assert train.trailing_fragment_count == 2
        assert train.span == pytest.approx(2 * 0.0012)
        assert train.wire_bytes == 1514 + 1514 + (888 + 20 + 14)

    def test_incomplete_group_detected(self):
        records = make_fragment_train()[:-1]  # drop the final fragment
        groups = group_datagrams(Trace(records))
        assert len(groups) == 1
        assert not groups[0].complete

    def test_identification_reuse_starts_new_group(self):
        records = make_fragment_train(start_number=1, start_time=0.0,
                                      identification=7)
        records += make_fragment_train(start_number=4, start_time=1.0,
                                       identification=7)
        groups = group_datagrams(Trace(records))
        assert len(groups) == 2

    def test_distinct_sources_do_not_merge(self):
        from .helpers import SERVER
        from repro.netsim.addressing import IPAddress

        other = IPAddress.parse("64.14.118.9")
        records = make_fragment_train(identification=5, src=SERVER)
        records += make_fragment_train(start_number=10, start_time=0.0005,
                                       identification=5, src=other)
        # Arrival order interleaves the trains, so both are open at once.
        records.sort(key=lambda record: record.time)
        groups = group_datagrams(Trace(records))
        assert len(groups) == 2
        assert all(g.complete for g in groups)


class TestMetrics:
    def test_fragmentation_percent_counts_trailing_only(self):
        # One UDP + 2 fragments per train, twice, plus 1 unfragmented:
        # 4 trailing fragments out of 7 packets.
        percent = fragmentation_percent(interleaved_trace())
        assert percent == pytest.approx(100.0 * 4 / 7)

    def test_paper_300kbps_shape(self):
        # Groups of 3 (1 UDP + 2 fragments) => 66.7%, the paper's value.
        records = []
        for index in range(10):
            records += make_fragment_train(start_number=3 * index + 1,
                                           start_time=index * 0.1,
                                           identification=index + 1)
        assert fragmentation_percent(Trace(records)) == pytest.approx(66.7,
                                                                      abs=0.1)

    def test_unfragmented_trace_is_zero_percent(self):
        records = [make_record(number=i, time=i * 0.1, identification=i)
                   for i in range(1, 6)]
        assert fragmentation_percent(Trace(records)) == 0.0

    def test_empty_trace_raises(self):
        with pytest.raises(AnalysisError):
            fragmentation_percent(Trace())

    def test_first_of_group_times(self):
        times = first_of_group_times(interleaved_trace())
        assert times == pytest.approx([0.0, 0.05, 0.1])

    def test_group_size_pattern_is_constant_for_cbr(self):
        records = []
        for index in range(5):
            records += make_fragment_train(start_number=3 * index + 1,
                                           start_time=index * 0.1,
                                           identification=index + 1)
        assert group_size_pattern(Trace(records)) == [3] * 5
