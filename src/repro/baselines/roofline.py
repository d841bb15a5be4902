"""Roofline cost model for host processors (CPU/GPU).

End-to-end comparisons in paper Figs. 10, 14, and 15 need host-side
latencies for GEMM-based inference and for the operators PIM-DL keeps on the
host (CCS, attention, element-wise).  A classic roofline —
``t = max(flops / peak, bytes / bandwidth) + overhead`` — with the paper's
published peak numbers reproduces the relative positions without modeling a
specific BLAS library.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RooflineDevice:
    """A host device characterized by compute and bandwidth rooflines.

    Attributes
    ----------
    peak_flops:
        Sustained GEMM throughput (FLOP/s) — peak scaled by an achievable
        efficiency, so ``gemm_time`` needs no extra fudge factor.
    mem_bandwidth:
        Sustained memory bandwidth (bytes/s) for streaming operators.
    op_overhead_s:
        Fixed per-operator launch/dispatch latency.
    power_w:
        Package power draw while busy, used by the energy model.
    """

    name: str
    peak_flops: float
    mem_bandwidth: float
    op_overhead_s: float
    power_w: float

    def op_time(self, flops: float, bytes_moved: float) -> float:
        """Roofline latency of an operator with the given footprint."""
        if flops < 0 or bytes_moved < 0:
            raise ValueError("flops and bytes must be non-negative")
        compute = flops / self.peak_flops if self.peak_flops > 0 else 0.0
        memory = bytes_moved / self.mem_bandwidth if self.mem_bandwidth > 0 else 0.0
        return max(compute, memory) + self.op_overhead_s

    def gemm_time(self, n: int, h: int, f: int, dtype_bytes: int = 4) -> float:
        """Dense (N,H)x(H,F) GEMM: 2NHF flops, one pass over A/B/C."""
        flops = 2.0 * n * h * f
        bytes_moved = (n * h + h * f + n * f) * dtype_bytes
        return self.op_time(flops, bytes_moved)

    def small_k_gemm_time(
        self, n: int, k: int, m: int, dtype_bytes: int = 4, knee: int = 10
    ) -> float:
        """GEMM with a tiny inner dimension ``k`` (e.g. CCS distance calc).

        With K as small as the LUT-NN sub-vector length (V = 2–4), each
        output element amortizes almost no compute over its loads, so
        sustained throughput collapses to roughly ``peak * k / (k + knee)``
        — the reason the paper keeps CCS on the host but it still accounts
        for ~20% of PIM-DL's end-to-end latency (Fig. 11-(a)).
        """
        if k <= 0:
            raise ValueError("inner dim must be positive")
        efficiency = k / (k + knee)
        flops = 2.0 * n * k * m
        bytes_moved = (n * k + k * m + n * m) * dtype_bytes
        compute = flops / (self.peak_flops * efficiency)
        memory = bytes_moved / self.mem_bandwidth
        return max(compute, memory) + self.op_overhead_s

    def ccs_time(
        self, n: int, h: int, v: int, ct: int, index_bytes: int = 1
    ) -> float:
        """Closest-centroid search of an (N, H) activation for one layer.

        CCS is per-column inner products between (N, V) activation tiles
        and (V, CT) codebooks (3*N*H*CT ops, paper §3.3) at small-K
        efficiency, followed by an argmin over the (N, CB, CT) distance
        tensor — which is why CCS contributes ~20% of PIM-DL's latency
        despite its modest op count (Fig. 11-(a)).  ``index_bytes`` is
        the per-entry width of the N·CB index matrix the argmin writes
        (1 for CT <= 256); the decode and per-layer configuration models
        leave it out (0).
        """
        cb = h // v
        distance = self.small_k_gemm_time(n * cb, v, ct)
        argmin_bytes = n * cb * ct * 4.0 + n * cb * index_bytes
        argmin = self.op_time(n * cb * ct, argmin_bytes)
        return distance + argmin

    def elementwise_time(self, elements: int, dtype_bytes: int = 4) -> float:
        """Streaming element-wise op (read + write each element once)."""
        return self.op_time(elements, 2.0 * elements * dtype_bytes)


def cpu_server_fp32() -> RooflineDevice:
    """Dual-socket Xeon Gold 5218 running FP32 GGML (paper Section 6.1).

    The *sustained* GEMM throughput is calibrated to what the paper's
    end-to-end numbers imply rather than the theoretical roofline: BERT-base
    (batch 64, seq 512, ~6.2 TFLOP) finishing ~2.05x slower than PIM-DL's
    "tens of seconds" (Sections 5.3, 6.3) puts GGML FP32 in the ~85 GFLOPS
    range on this machine — far below the 2.36 TFLOPS AVX-512 peak, which
    GGML's AVX2 kernels of that era never approached on large batched GEMM.
    Eight DDR4-2666 channels give ~170 GB/s sustained.
    """
    return RooflineDevice(
        name="CPU FP32 (2x Xeon Gold 5218)",
        peak_flops=85e9,
        mem_bandwidth=170e9,
        op_overhead_s=5e-6,
        power_w=2 * 125.0 + 50.0,  # two 125 W TDP sockets + DRAM
    )


def cpu_server_int8() -> RooflineDevice:
    """Same server with AVX2 INT8 kernels — ~1.8x FP32 GEMM throughput.

    The ratio is what paper Fig. 10 implies: PIM-DL (V=2) is 2.05x over
    FP32 but 1.14x over INT8 => INT8 ~ 1.8x FP32.
    """
    fp32 = cpu_server_fp32()
    return RooflineDevice(
        name="CPU INT8 (2x Xeon Gold 5218)",
        peak_flops=fp32.peak_flops * 1.8,
        mem_bandwidth=fp32.mem_bandwidth,
        op_overhead_s=fp32.op_overhead_s,
        power_w=fp32.power_w,
    )


def prefill_host() -> RooflineDevice:
    """A compute-configured prefill device for disaggregated serving.

    The prefill pool of a disaggregated deployment
    (:class:`~repro.engine.disagg.DisaggScheduler`) wants the opposite
    balance from the PIM decode pool: batched prompt GEMMs are
    compute-dense, so this device models the serving host with *all four*
    DDR4 channels per socket carrying conventional DIMMs (no PIM-DIMMs
    stealing slots as in :func:`wimpy_host`) and INT8 GEMM kernels at the
    :func:`cpu_server_int8` calibration — the Cho et al. split of keeping
    compute-bound phases near the host while the memory-side accelerator
    owns the bandwidth-bound ones.
    """
    int8 = cpu_server_int8()
    return RooflineDevice(
        name="Prefill host (2x Xeon Gold 5218, 8ch DDR4)",
        peak_flops=int8.peak_flops,
        mem_bandwidth=int8.mem_bandwidth,
        op_overhead_s=int8.op_overhead_s,
        power_w=int8.power_w,
    )


def wimpy_host() -> RooflineDevice:
    """The Xeon 4210 host that drives the UPMEM DIMMs (paper Table 3).

    Dual 10-core 2.2 GHz sockets.  Fig. 4's Intel-Advisor roofline peak is
    795 GOPS, but the GGML host operators sustain ~75 GFLOPS (same
    calibration basis as :func:`cpu_server_fp32`).  Only two DDR4 channels
    per socket carry conventional DIMMs — the other two hold PIM-DIMMs
    (Section 6.1) — so sustained host bandwidth is ~35 GB/s.
    """
    return RooflineDevice(
        name="Host CPU (2x Xeon 4210)",
        peak_flops=75e9,
        mem_bandwidth=35e9,
        op_overhead_s=5e-6,
        power_w=2 * 85.0 + 30.0,
    )


def v100_gpu() -> RooflineDevice:
    """NVIDIA V100 (DGX-1) running FP32 PyTorch (paper Section 6.7).

    The paper quotes 130 TFLOPS (tensor-core peak); PyTorch FP32 GEMMs on
    transformer shapes sustain ~15% of it, and the small-batch shapes of
    Fig. 15 are weight-streaming bound, where cuBLAS runs near the 900 GB/s
    HBM2 peak.
    """
    return RooflineDevice(
        name="NVIDIA V100 FP32",
        peak_flops=130e12 * 0.15,
        mem_bandwidth=900e9 * 0.97,
        op_overhead_s=8e-6,
        power_w=300.0,
    )


def a2_gpu() -> RooflineDevice:
    """NVIDIA A2 — the wimpy host of the HBM-PIM/AiM platforms (Table 3)."""
    return RooflineDevice(
        name="NVIDIA A2",
        peak_flops=4.5e12 * 0.5,
        mem_bandwidth=200e9 * 0.75,
        op_overhead_s=8e-6,
        power_w=60.0,
    )
