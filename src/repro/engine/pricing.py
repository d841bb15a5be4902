"""The LUT operator's modeled cost, shared by the prefill, decode and MoE
pricing: tune, optional overlap, and the stage-to-phase attribution."""

from __future__ import annotations

from typing import Dict, Tuple

from ..mapping.analytical import with_overlap


def lut_op_cost(
    tuner,
    shape,
    overlap=False,
    exposed_dma=False,
    resilience=None,
    host=None,
    host_kernel_profile=None,
    op_name="lut",
) -> Tuple[float, str, Dict[str, float], float]:
    """Price one LUT op of ``shape`` on ``tuner``'s platform.

    Returns ``(seconds, device, phases, overlap_hidden)``: ``phases``
    partitions ``seconds`` (a single ``lut`` phase under fault recovery).

    ``overlap`` applies the double-buffered pipeline
    (:func:`~repro.mapping.analytical.with_overlap`).  By default
    ``seconds`` and the ``dma`` phase carry the full sequential work and
    the caller subtracts ``overlap_hidden``; ``exposed_dma`` charges the
    wall clock and the exposed transfer instead.  An active
    ``resilience`` manager prices the op through its recovery ladder.
    """
    if resilience is not None and resilience.active:
        seconds, device = resilience.lut_op_seconds(
            shape, tuner.platform, tuner, host,
            host_kernel_profile=host_kernel_profile, op_name=op_name,
        )
        return seconds, device, {"lut": seconds}, 0.0
    tuned = tuner.tune(shape)
    lat = tuned.latency
    if overlap:
        lat = with_overlap(shape, tuned.mapping, lat)
    if exposed_dma:
        seconds, dma = lat.total, lat.exposed_transfer
    else:
        seconds, dma = lat.total + lat.overlap_hidden, lat.kernel_transfer
    # The analytical stages attribute the op to the simulator's phases.
    phases = {
        "distribution": lat.sub_index + lat.sub_lut,
        "dma": dma,
        "reduce": lat.kernel_reduce,
        "gather": lat.sub_output,
        "launch": lat.launch,
    }
    return seconds, "pim", phases, lat.overlap_hidden
