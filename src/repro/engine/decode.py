"""Autoregressive (decode-phase) serving models — the GPT/LSTM scenario.

The paper motivates PIM-DL by noting that HBM-PIM/AiM already accelerate
*single-batch* GPT/LSTM inference, which is GEMV-dominated, but cloud
serving needs batched GEMM (Section 1, 2.2).  This module closes the loop
from the other side: it models the token-by-token decode phase, where each
generated token turns every linear layer into a GEMV of shape (B, H)x(H, F)
with B small, and asks where LUT-NN still pays off.

For decode, the LUT operator degenerates to per-token table gathers
(N = batch), while the GEMV baseline streams the full weight matrix per
token — so LUT-NN's V-fold traffic reduction applies to the *weights*, the
decode bottleneck.  The engine reports per-token latency and tokens/s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from ..baselines.roofline import RooflineDevice
from ..core.codebook import LUTShape
from ..kernels import HostKernelProfile
from ..mapping.tuner import AutoTuner
from ..pim.gemm_kernels import linear_layer_on_pim
from ..pim.platforms import PIMPlatform
from ..workloads.configs import TransformerConfig
from ..workloads.routing import MoEConfig
from .engine import LUTEngineBase
from .pricing import lut_op_cost

if TYPE_CHECKING:  # pragma: no cover - import cycle (resilience uses tuner)
    from ..resilience.recovery import RecoveryManager


@dataclass(frozen=True)
class DecodeReport:
    """Per-token decode cost of one serving configuration."""

    engine: str
    model: str
    batch_size: int
    context_len: int
    linear_s: float
    attention_s: float
    other_s: float
    #: Per-phase attribution of one token step; sums to
    #: :attr:`token_latency_s` when populated (LUT decode fills it).
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Transfer seconds per token the double-buffered LUT pipeline hid
    #: (informational; ``linear_s`` and the ``dma`` phase already report
    #: exposed time, so phases still sum to :attr:`token_latency_s`).
    overlap_hidden_s: float = 0.0

    @property
    def token_latency_s(self) -> float:
        return self.linear_s + self.attention_s + self.other_s

    @property
    def tokens_per_s(self) -> float:
        return self.batch_size / self.token_latency_s


def kv_cache_bytes(
    config: TransformerConfig, tokens: int, batch: int = 1, dtype_bytes: int = 2
) -> float:
    """KV-cache footprint of ``batch`` sequences with ``tokens`` cached each.

    K and V per layer: ``2 * num_layers * tokens * batch * hidden_dim``
    elements.  This is the payload a disaggregated deployment migrates
    from the prefill pool to the decode pool
    (:class:`~repro.engine.disagg.KVTransferModel`), and the same cache
    the attention reads in :func:`_attention_decode_time` stream over.
    """
    if tokens <= 0 or batch <= 0:
        return 0.0
    return 2.0 * config.num_layers * tokens * batch * config.hidden_dim * dtype_bytes


def _attention_decode_time(
    host: RooflineDevice, config: TransformerConfig, batch: int, context: int
) -> float:
    """Single-token attention against a KV cache of ``context`` entries."""
    per_layer_flops = 4.0 * batch * config.num_heads * context * config.head_dim
    per_layer_bytes = 2.0 * batch * context * config.hidden_dim * 2  # K and V reads
    return config.num_layers * host.op_time(per_layer_flops, per_layer_bytes)


def _elementwise_decode_time(
    host: RooflineDevice, config: TransformerConfig, batch: int
) -> float:
    elems = float(batch) * config.hidden_dim
    per_layer = 2 * host.elementwise_time(int(5 * elems)) + host.elementwise_time(
        int(batch * config.ffn_dim)
    )
    return config.num_layers * per_layer


def _decode_report(
    engine: str,
    host: RooflineDevice,
    config: TransformerConfig,
    batch_size: int,
    context_len: int,
    linear_s: float,
    phases: Dict[str, float],
    overlap_hidden_s: float = 0.0,
) -> DecodeReport:
    """One token step: ``linear_s`` plus host attention and element-wise."""
    attention_s = _attention_decode_time(host, config, batch_size, context_len)
    other_s = _elementwise_decode_time(host, config, batch_size)
    phases["attention"] = attention_s
    phases["elementwise"] = other_s
    return DecodeReport(
        engine=engine,
        model=config.name,
        batch_size=batch_size,
        context_len=context_len,
        linear_s=linear_s,
        attention_s=attention_s,
        other_s=other_s,
        phase_seconds=phases,
        overlap_hidden_s=overlap_hidden_s,
    )


class _NativeDecodeEngine:
    """Decode with dense linear layers on ``host``; subclasses name the
    engine (``_engine_name()``) and price one (B, H)x(H, F) layer
    (``_linear_time``)."""

    def run(
        self, config: TransformerConfig, batch_size: int = 1, context_len: int = 512
    ) -> DecodeReport:
        linear_s = 0.0
        for _, h, f in config.linear_layer_shapes():
            linear_s += self._linear_time(batch_size, h, f)
        linear_s *= config.num_layers
        return _decode_report(
            self._engine_name(), self.host, config, batch_size, context_len,
            linear_s, {"gemm": linear_s},
        )


class GEMVDecodeEngine(_NativeDecodeEngine):
    """Decode with linear layers as per-token GEMVs on the PIM (baseline)."""

    def __init__(self, platform: PIMPlatform, host: RooflineDevice):
        self.platform = platform
        self.host = host

    def _engine_name(self) -> str:
        return f"pim-gemv[{self.platform.name}]"

    def _linear_time(self, batch_size: int, h: int, f: int) -> float:
        return linear_layer_on_pim(self.platform, batch_size, h, f).total


class LUTDecodeEngine(LUTEngineBase):
    """Decode with LUT-NN linear layers on the PIM (PIM-DL applied to decode).

    Per generated token the index matrix is tiny (N = batch), so the tuned
    mapping usually keeps the whole LUT resident (tables are weights) and the
    kernel reduces to per-token gathers — ``amortize_lut_distribution`` is
    forced on, matching a serving deployment.  The double-buffered LUT
    pipeline (``overlap``) is charged at its exposed transfer: a
    :class:`DecodeReport` has no hidden-time subtraction, so ``linear_s``
    and the ``dma`` phase carry wall-clock time and the hidden transfer is
    reported alongside.
    """

    ccs_index_bytes = 0

    def __init__(
        self,
        platform: PIMPlatform,
        host: RooflineDevice,
        v: int = 4,
        ct: int = 16,
        tuner: Optional[AutoTuner] = None,
        host_kernel_profile: Optional[HostKernelProfile] = None,
        resilience: Optional["RecoveryManager"] = None,
        overlap: bool = False,
    ):
        super().__init__(
            platform, host, v, ct, True, tuner, host_kernel_profile,
            resilience, overlap,
        )

    def run(
        self,
        config: TransformerConfig,
        batch_size: int = 1,
        context_len: int = 512,
        moe: Optional[MoEConfig] = None,
    ) -> DecodeReport:
        """Per-token decode cost; ``moe`` swaps the FFN pair for a gated
        mixture of experts priced as gate + CCS + max-over-ranks LUT
        makespan (same model as :meth:`PIMDLEngine.moe_layer_cost`, with
        N = batch)."""
        if config.hidden_dim % self.v or config.ffn_dim % self.v:
            raise ValueError(f"model dims not divisible by V={self.v}")
        linear_s = 0.0
        hidden_s = 0.0
        phases: Dict[str, float] = {}
        for name, h, f in config.linear_layer_shapes():
            if moe is not None and name in ("FFN1", "FFN2"):
                if name == "FFN2":
                    continue  # priced inside the MoE layer below
                cost = self._moe_cost(batch_size, config, moe)
                linear_s += cost.total_s
                for phase, s in cost.phases.items():
                    phases[phase] = phases.get(phase, 0.0) + s
                continue
            shape = LUTShape(n=batch_size, h=h, f=f, v=self.v, ct=self.ct)
            seconds, _, lut_phases, hidden = lut_op_cost(
                self.tuner, shape, self.overlap, True, self.resilience,
                self.host, self.host_kernel_profile, f"decode/{name}",
            )
            linear_s += seconds
            hidden_s += hidden
            for phase, s in lut_phases.items():
                phases[phase] = phases.get(phase, 0.0) + s
            ccs_s = self._ccs_time(batch_size, h)
            linear_s += ccs_s
            phases["ccs"] = phases.get("ccs", 0.0) + ccs_s
        linear_s *= config.num_layers
        hidden_s *= config.num_layers
        phases = {p: s * config.num_layers for p, s in phases.items()}
        return _decode_report(
            f"pim-dl-decode[{self.platform.name}, V={self.v}]", self.host, config,
            batch_size, context_len, linear_s, phases, hidden_s,
        )


class HostDecodeEngine(_NativeDecodeEngine):
    """Decode entirely on a CPU/GPU roofline device."""

    def __init__(self, device: RooflineDevice):
        self.device = device

    @property
    def host(self) -> RooflineDevice:
        return self.device

    def _engine_name(self) -> str:
        return f"host-decode[{self.device.name}]"

    def _linear_time(self, batch_size: int, h: int, f: int) -> float:
        return self.device.gemm_time(batch_size, h, f)
