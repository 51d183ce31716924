"""Every artifact generator, keyed by its paper id.

Loading this module loads every figure module; the package's other
names load only their own.
"""

from repro.experiments.figures import (
    fig01_rtt,
    fig02_hops,
    fig03_playback,
    fig04_arrivals,
    fig05_frag,
    fig06_size_pdf,
    fig07_norm_size,
    fig08_interarrival_pdf,
    fig09_norm_interarrival,
    fig10_bandwidth,
    fig11_buffer_ratio,
    fig12_layers,
    fig13_framerate_time,
    fig14_framerate_encoding,
    fig15_framerate_bandwidth,
    sec4_generator,
    table1,
)

ALL_FIGURES = {
    "table1": table1.generate,
    "fig01": fig01_rtt.generate,
    "fig02": fig02_hops.generate,
    "fig03": fig03_playback.generate,
    "fig04": fig04_arrivals.generate,
    "fig05": fig05_frag.generate,
    "fig06": fig06_size_pdf.generate,
    "fig07": fig07_norm_size.generate,
    "fig08": fig08_interarrival_pdf.generate,
    "fig09": fig09_norm_interarrival.generate,
    "fig10": fig10_bandwidth.generate,
    "fig11": fig11_buffer_ratio.generate,
    "fig12": fig12_layers.generate,
    "fig13": fig13_framerate_time.generate,
    "fig14": fig14_framerate_encoding.generate,
    "fig15": fig15_framerate_bandwidth.generate,
    "sec4": sec4_generator.generate,
}
