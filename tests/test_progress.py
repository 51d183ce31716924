"""ProgressRenderer: the in-place TTY line and the plain per-run lines."""

import io

from repro.experiments.progress import (
    PHASE_DONE,
    PHASE_START,
    Heartbeat,
    ProgressRenderer,
)

ERASE = "\r\x1b[2K"


def _beats():
    """A two-run study's heartbeats: START(i) then DONE(i)."""
    for index, label in enumerate(("set1-l", "set1-h")):
        yield Heartbeat(index=index, total=2, label=label, phase=PHASE_START)
        yield Heartbeat(index=index, total=2, label=label, phase=PHASE_DONE,
                        events_folded=10, faults_fired=1)


class TestProgressRenderer:
    def test_tty_redraws_one_line_per_beat(self):
        out = io.StringIO()
        ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0])
        renderer = ProgressRenderer(stream=out, force_tty=True,
                                    clock=lambda: next(ticks))
        for beat in _beats():
            renderer(beat)
        assert "\n" not in out.getvalue()
        renderer.close()
        text = out.getvalue()
        assert text.startswith(ERASE) and text.endswith("\n")
        assert text[:-1].split(ERASE)[1:] == [
            "study 0/2 runs elapsed 1.0s cache cold events 0 faults 0 "
            "violations 0",
            "study 1/2 runs elapsed 2.0s eta 2.0s cache cold events 10 "
            "faults 1 violations 0",
            "study 1/2 runs elapsed 3.0s eta 3.0s cache cold events 10 "
            "faults 1 violations 0",
            "study 2/2 runs elapsed 4.0s cache cold events 20 faults 2 "
            "violations 0",
        ]

    def test_tty_close_without_beats_writes_nothing(self):
        out = io.StringIO()
        ProgressRenderer(stream=out, force_tty=True).close()
        assert out.getvalue() == ""

    def test_plain_stream_writes_one_line_per_done_beat(self):
        out = io.StringIO()
        renderer = ProgressRenderer(stream=out, force_tty=False)
        for beat in _beats():
            renderer(beat)
        renderer.close()
        assert out.getvalue().splitlines() == [
            "run 1/2 done set1-l events=10 faults=1 violations=0",
            "run 2/2 done set1-h events=10 faults=1 violations=0",
        ]
        assert renderer.done == 2
