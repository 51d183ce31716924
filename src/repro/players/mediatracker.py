"""MediaTracker: the instrumented Windows MediaPlayer.

The paper's MediaTracker is an ActiveX embedding of the MediaPlayer 7.1
engine that logs playback statistics.  Uniquely among the two trackers
it can observe *application-layer packet receipt times*, which exposed
the interleaving batches of Figure 12 — so this client wires in the
:class:`~repro.players.interleave.BatchingReceiver`.
"""

from __future__ import annotations

from typing import List

from repro.errors import AnalysisError
from repro.media.clip import PlayerFamily
from repro.players.base import StreamingClient


class MediaTracker(StreamingClient):
    """Plays Windows Media clips and records statistics."""

    family = PlayerFamily.WMP
    uses_interleaving = True

    def application_batch_sizes(self) -> List[int]:
        """Packets per application release instant (~10 in the paper)."""
        if self.interleaver is None:
            raise AnalysisError("interleaver not active")
        return self.interleaver.batch_sizes()
