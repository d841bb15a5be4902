"""PIM-DL inference engine and the baseline engines it is compared against.

Three engines share the operator graph of :mod:`repro.engine.graph`:

* :class:`PIMDLEngine` — the paper's system: linear layers become a
  host-side CCS operator plus a PIM-side LUT operator whose mapping comes
  from the Auto-Tuner; attention and element-wise operators run on the host.
* :class:`GEMMPIMEngine` — "normal" DNN inference with linear layers
  offloaded to the PIM as dense GEMMs (the PIM baseline of Figs. 10/14).
* :class:`HostEngine` — everything on a CPU/GPU roofline device (the
  CPU FP32/INT8 and V100 baselines).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from .. import obs
from ..baselines.roofline import RooflineDevice
from ..core.codebook import LUTShape
from ..kernels import HostKernelProfile
from ..mapping.tuner import AutoTuner
from ..pim.energy import host_only_energy, pim_system_energy
from ..pim.gemm_kernels import linear_layer_on_pim
from ..pim.platforms import PIMPlatform
from ..workloads.configs import TransformerConfig
from ..workloads.routing import MoEConfig
from .graph import LINEAR, MOE, model_graph
from .moe import MoELayerCost, make_rank_tuner, price_moe_ffn
from .pricing import lut_op_cost
from .report import EngineReport, OpLatency

if TYPE_CHECKING:  # pragma: no cover - import cycle (resilience uses tuner)
    from ..resilience.recovery import RecoveryManager


def _observe_op(report: EngineReport, op: OpLatency, phases=None) -> None:
    """Append ``op``, record its latency, and attribute its phases.

    ``phases`` maps phase name -> seconds for ops with a finer-grained
    breakdown (the LUT op's analytical stages); by default the op's whole
    latency lands on its category.
    """
    obs.get_registry().histogram("engine.op_model_seconds").observe(op.seconds)
    report.ops.append(op)
    if phases is None:
        report.add_phase(op.category, op.seconds)
    else:
        for phase, seconds in phases.items():
            report.add_phase(phase, seconds)


def _finish_run(report: EngineReport, span) -> None:
    registry = obs.get_registry()
    registry.counter("engine.runs").inc()
    registry.counter("engine.ops").inc(len(report.ops))
    span.set_attribute("model_total_s", report.total_s)
    span.set_attribute("ops", len(report.ops))


def _priced_op(
    report: EngineReport, tracer, engine: str, name: str, device: str,
    category: str, price: Callable[..., float], *args,
) -> None:
    """Observe one op priced by ``price(*args)`` inside its ``op:`` span."""
    with tracer.span(
        f"op:{name}", engine=engine, device=device, category=category
    ) as sp:
        seconds = price(*args)
        sp.set_attribute("model_seconds", seconds)
    _observe_op(report, OpLatency(name, device, category, seconds))


def _run_graph(
    engine: str,
    config: TransformerConfig,
    graph,
    host: RooflineDevice,
    linear_op: Optional[Callable],
    energy: Callable[[EngineReport], object],
    pipeline_overlap: bool = False,
) -> EngineReport:
    """Walk ``graph`` under one ``engine.run`` span.

    ``linear_op(report, tracer, op)`` observes each linear (or MoE)
    operator; every other operator — and, without ``linear_op``, every
    linear one as a ``gemm`` — runs on the ``host`` roofline.
    ``pipeline_overlap`` hides ``min(host, pim)`` seconds (paper §7's
    host/PIM double-buffering what-if) before ``energy(report)`` is taken.
    """
    tracer = obs.get_tracer()
    report = EngineReport(engine=engine, model=config.name)
    with tracer.span("engine.run", engine=engine, model=config.name) as root:
        for op in graph:
            if linear_op is not None and (op.kind == LINEAR or op.kind == MOE):
                linear_op(report, tracer, op)
            else:
                category = "gemm" if op.kind == LINEAR else op.kind
                _priced_op(
                    report, tracer, engine, op.name, "host", category,
                    host.op_time, op.flops, op.bytes_moved,
                )
        if pipeline_overlap:
            # Engine-level what-if (host work under PIM kernels);
            # composes additively with the kernel-level pipeline.
            report.overlap_hidden_s += min(report.host_s, report.pim_s)
        report.energy = energy(report)
        _finish_run(report, root)
    return report


class HostEngine:
    """All operators on a single CPU/GPU roofline device."""

    def __init__(self, device: RooflineDevice, dtype_bytes: int = 4):
        self.device = device
        self.dtype_bytes = dtype_bytes

    @property
    def name(self) -> str:
        return f"host[{self.device.name}]"

    def run(self, config: TransformerConfig) -> EngineReport:
        return _run_graph(
            self.name, config, model_graph(config, self.dtype_bytes), self.device,
            None, lambda r: host_only_energy(self.device, r.total_s),
        )


class GEMMPIMEngine:
    """Linear layers offloaded to DRAM-PIM as dense GEMMs; rest on host."""

    def __init__(self, platform: PIMPlatform, host: RooflineDevice):
        self.platform = platform
        self.host = host

    @property
    def name(self) -> str:
        return f"pim-gemm[{self.platform.name}]"

    def run(self, config: TransformerConfig) -> EngineReport:
        name = self.name
        n = config.tokens

        def gemm(report, tracer, op):
            _priced_op(
                report, tracer, name, op.name, "pim", "gemm",
                lambda: linear_layer_on_pim(self.platform, n, op.h, op.f).total,
            )

        return _run_graph(
            name, config, model_graph(config), self.host, gemm,
            lambda r: pim_system_energy(self.platform, r.host_s, r.pim_s),
        )


class LUTEngineBase:
    """The prefill and decode LUT engines' shared state and pricing: (V, CT)
    validation, the CCS cost and the MoE entry.  Both price their LUT ops
    through :func:`repro.engine.pricing.lut_op_cost`.

    ``ccs_index_bytes`` is the one modeled difference between the two
    engines' CCS costs (see :meth:`RooflineDevice.ccs_time`).
    """

    ccs_index_bytes = 1

    def __init__(
        self,
        platform: PIMPlatform,
        host: RooflineDevice,
        v: int = 4,
        ct: int = 16,
        amortize_lut_distribution: Optional[bool] = None,
        tuner: Optional[AutoTuner] = None,
        host_kernel_profile: Optional[HostKernelProfile] = None,
        resilience: Optional["RecoveryManager"] = None,
        overlap: bool = False,
    ):
        if v <= 0 or ct <= 0:
            raise ValueError("v and ct must be positive")
        self.platform = platform
        self.host = host
        self.v = v
        self.ct = ct
        if amortize_lut_distribution is None:
            # HBM-PIM/AiM keep LUTs (= model weights) resident in the PIM
            # banks; UPMEM re-distributes them per kernel (paper's setup).
            amortize_lut_distribution = bool(platform.extras.get("lut_resident", 0))
        self.tuner = tuner or AutoTuner(
            platform, amortize_lut_distribution=amortize_lut_distribution
        )
        self.host_kernel_profile = host_kernel_profile
        self.resilience = resilience
        self.overlap = overlap
        self._rank_tuner: Optional[AutoTuner] = None
        self._moe_costs: dict = {}

    def _ccs_time(self, n: int, h: int) -> float:
        """Host-side closest-centroid search for one linear layer; a
        measured :class:`~repro.kernels.HostKernelProfile` replaces the
        roofline estimate with this machine's real throughput."""
        if self.host_kernel_profile is not None:
            return self.host_kernel_profile.ccs_time(n, h, self.ct)
        return self.host.ccs_time(n, h, self.v, self.ct, self.ccs_index_bytes)

    def _moe_cost(
        self, tokens: int, config: TransformerConfig, moe: MoEConfig
    ) -> MoELayerCost:
        """Price one MoE FFN layer at ``tokens`` rows (memoized per engine).

        Expert kernels tune on a single-rank platform slice whose tuner
        shares the dense tuner's ``MappingCache`` (keyed by platform, so
        slice entries never collide) and amortization setting.
        """
        key = (tokens, config.hidden_dim, config.ffn_dim, moe)
        if key not in self._moe_costs:
            if self._rank_tuner is None:
                self._rank_tuner = make_rank_tuner(
                    self.platform,
                    amortize_lut_distribution=self.tuner.amortize_lut_distribution,
                    cache=self.tuner.cache,
                )
            self._moe_costs[key] = price_moe_ffn(
                self._rank_tuner, self.host, tokens, config.hidden_dim,
                config.ffn_dim, moe, num_ranks=self.platform.ranks,
                v=self.v, ct=self.ct, ccs_time=self._ccs_time,
            )
        return self._moe_costs[key]


class PIMDLEngine(LUTEngineBase):
    """The PIM-DL system: LUT-NN linear layers on PIM, the rest on the host.

    Parameters
    ----------
    v, ct:
        LUT-NN hyper-parameters (sub-vector length, centroids per codebook).
    amortize_lut_distribution:
        Treat LUTs (model weights) as resident in PIM memory across
        inferences.  Default False: every inference pays the full Eq. 3
        distribution cost, matching the paper's measurement setup.
    host_kernel_profile:
        Optional measured throughput of this machine's host CCS kernel
        (:func:`repro.kernels.measure_host_kernels`).  When set, CCS time
        comes from the measurement instead of the host roofline, so the
        latency model reflects the actual kernel layer.
    resilience:
        Optional :class:`~repro.resilience.recovery.RecoveryManager`.
        When set (and its fault plan is non-empty), every LUT operator
        runs through the retry → remap → host-fallback ladder instead of
        the plain tuner lookup; degradation is recorded in the manager's
        ledger and the op's device switches to ``"host"`` for fallen-back
        layers.  ``None`` (or an empty plan) leaves the engine's behavior
        bit-identical to a build without the resilience layer.
    overlap:
        Model every LUT kernel with the double-buffered micro-kernel
        pipeline (:func:`repro.mapping.analytical.with_overlap`): the
        transfer of m-tile ``i+1`` overlaps the reduce of m-tile ``i``.
        The hidden transfer accumulates into
        ``EngineReport.overlap_hidden_s`` while op seconds and phases keep
        reporting the full sequential work, so schedulers built on this
        engine (:class:`~repro.engine.scheduler.RequestScheduler`, the
        cluster layer) inherit the speedup with no API change.  Default
        False — bit-identical to the sequential model.
    """

    @property
    def name(self) -> str:
        return f"pim-dl[{self.platform.name}, V={self.v}, CT={self.ct}]"

    def lut_shape(self, n: int, h: int, f: int) -> LUTShape:
        if h % self.v:
            raise ValueError(f"hidden dim {h} not divisible by V={self.v}")
        return LUTShape(n=n, h=h, f=f, v=self.v, ct=self.ct)

    def moe_layer_cost(self, config: TransformerConfig, moe: MoEConfig) -> MoELayerCost:
        """Price one MoE FFN layer of ``config`` (memoized per engine)."""
        return self._moe_cost(config.tokens, config, moe)

    def run(
        self,
        config: TransformerConfig,
        pipeline_overlap: bool = False,
        moe: Optional[MoEConfig] = None,
    ) -> EngineReport:
        """Estimate one inference of ``config``.

        ``pipeline_overlap`` models the what-if of paper §7's discussion:
        double-buffering the host work (CCS, attention, element-wise ops)
        against PIM LUT kernels, so per inference only
        ``max(host_time, pim_time)`` is exposed instead of their sum.  The
        sequential default matches the paper's measured system.

        ``moe`` replaces the dense FFN of every layer with a gated
        mixture of experts; the FFN pair is then priced as gate + CCS +
        the expert placement's max-over-ranks LUT makespan
        (:func:`repro.engine.moe.price_moe_ffn`).
        """
        name = self.name
        n = config.tokens

        def linear(report, tracer, op):
            if op.kind == MOE:
                self._run_moe_op(report, tracer, name, config, moe, op)
            else:
                self._run_lut_pair(report, tracer, name, n, op)

        return _run_graph(
            name, config, model_graph(config, moe=moe), self.host, linear,
            lambda r: pim_system_energy(self.platform, r.host_s, r.pim_s),
            pipeline_overlap,
        )

    def _run_lut_pair(self, report, tracer, name, n, op) -> None:
        """Observe one converted linear layer as host CCS + PIM LUT op."""
        _priced_op(
            report, tracer, name, f"{op.name}/CCS", "host", "ccs",
            self._ccs_time, n, op.h,
        )
        # The LUT op's costing span nests the tuner's own spans (and, under
        # fault injection, the recovery ladder's).
        shape = self.lut_shape(n, op.h, op.f)
        with tracer.span(
            f"op:{op.name}/LUT", engine=name, device="pim", category="lut",
        ) as sp:
            # Op seconds and phases report the full sequential work; the
            # pipelined saving lands in report.overlap_hidden_s, preserving
            # the sum(phases) == total_s + hidden invariant.
            seconds, device, phases, hidden = lut_op_cost(
                self.tuner, shape, self.overlap, False, self.resilience,
                self.host, self.host_kernel_profile, f"{op.name}/LUT",
            )
            report.overlap_hidden_s += hidden
            sp.set_attribute("model_seconds", seconds)
            if self.resilience is not None and self.resilience.active:
                sp.set_attribute("device", device)
            if hidden > 0:
                sp.set_attribute("overlap_hidden_s", hidden)
        _observe_op(
            report, OpLatency(f"{op.name}/LUT", device, "lut", seconds), phases
        )

    def _run_moe_op(self, report, tracer, name, config, moe, op) -> None:
        """Observe one ``FFN-MoE`` operator as gate + CCS + LUT makespan."""
        with tracer.span(
            f"op:{op.name}", engine=name, device="pim", category="moe",
        ) as sp:
            cost = self.moe_layer_cost(config, moe)
            sp.set_attribute("model_seconds", cost.total_s)
            sp.set_attribute("experts", moe.num_experts)
            sp.set_attribute("rank_imbalance", cost.imbalance_index)
        _observe_op(
            report, OpLatency(f"{op.name}/Gate", "host", "gate", cost.gate_s)
        )
        _observe_op(
            report, OpLatency(f"{op.name}/CCS", "host", "ccs", cost.ccs_s)
        )
        lut_phases = {
            phase: s
            for phase, s in cost.phases.items()
            if phase not in ("ccs", "gate")
        }
        _observe_op(
            report,
            OpLatency(f"{op.name}/LUT", "pim", "lut", cost.lut_makespan_s),
            phases=lut_phases,
        )
