"""Outside-in layer probes: spans around the public calls of each layer.

The benchmark never edits the program.  For the traced run it wraps the
public entry points of every layer (:data:`LAYER_CALLS`) with spans on a
private :class:`repro.obs.Tracer`, so the program's own always-on
telemetry is untouched.  Finished spans are folded into a per-layer
*self-time* table as they finish: a span's self time is its duration minus
the durations of its direct children, so the rows of one phase — including
``other_s``, the self time of the phase's root span — telescope to the
root's duration exactly, up to float rounding.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro import obs

#: (module, class or None for a module function, attribute, span name).
#: Module functions are wrapped in the namespace their caller looks them
#: up in: ``lut_linear`` imports the gather kernels by name, and the
#: benchmark calls ``convert_to_lut_nn`` through ``repro.core``.
LAYER_CALLS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.mapping.tuner", "AutoTuner", "tune", "mapping.tune"),
    ("repro.mapping.store", "MappingCache", "get", "mapping.cache_io"),
    ("repro.mapping.store", "MappingCache", "put", "mapping.cache_io"),
    ("repro.pim.simulator", "PIMSimulator", "run", "pim.simulate"),
    ("repro.engine.serving", "GenerationServer", "warmup", "engine.warmup"),
    ("repro.engine.scheduler", "EngineCostModel", "prefill_s", "engine.cost"),
    ("repro.engine.scheduler", "EngineCostModel", "decode_step_s", "engine.cost"),
    # Engine evaluations happen only when the cost memo misses.
    ("repro.engine.engine", "PIMDLEngine", "run", "engine.model"),
    ("repro.engine.decode", "LUTDecodeEngine", "run", "engine.model"),
    ("repro.engine.scheduler", "RequestScheduler", "run", "scheduler.run"),
    ("repro.engine.disagg", "DisaggScheduler", "run", "disagg.run"),
    ("repro.cluster.scheduler", "ClusterScheduler", "run", "cluster.run"),
    ("repro.core", None, "convert_to_lut_nn", "core.convert"),
    ("repro.core.calibration", "ELUTNNCalibrator", "calibrate", "core.calibrate"),
    ("repro.autograd.tensor", "Tensor", "backward", "autograd.backward"),
    ("repro.nn.models", "TextClassifier", "forward", "nn.forward"),
    ("repro.kernels.ccs", "CCSKernel", "search", "kernels.ccs"),
    ("repro.core.lut_linear", None, "lut_gather_reduce", "kernels.lut"),
    ("repro.core.lut_linear", None, "lut_gather_reduce_quantized", "kernels.lut"),
)

#: Self-time table rows, in report order.  Every span name maps to one.
ROWS: Tuple[str, ...] = (
    "mapping.tune_s",
    "mapping.cache_io_s",
    "pim.simulate_s",
    "engine.cost_s",
    "scheduler.run_s",
    "disagg.run_s",
    "cluster.run_s",
    "core.convert_s",
    "core.calibrate_s",
    "autograd.backward_s",
    "nn.forward_s",
    "kernels.ccs_s",
    "kernels.lut_s",
    "other_s",
)

ROOT_SPAN = "bench.phase"

_ROW_OF = {
    "mapping.tune": "mapping.tune_s",
    "mapping.cache_io": "mapping.cache_io_s",
    "pim.simulate": "pim.simulate_s",
    "engine.warmup": "engine.cost_s",
    "engine.cost": "engine.cost_s",
    "engine.model": "engine.cost_s",
    "scheduler.run": "scheduler.run_s",
    "disagg.run": "disagg.run_s",
    "cluster.run": "cluster.run_s",
    "core.convert": "core.convert_s",
    "core.calibrate": "core.calibrate_s",
    "autograd.backward": "autograd.backward_s",
    "nn.forward": "nn.forward_s",
    "kernels.ccs": "kernels.ccs_s",
    "kernels.lut": "kernels.lut_s",
    ROOT_SPAN: "other_s",
}


def _resolve(module: str, cls: Optional[str]):
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls is not None else owner


class PhaseTable:
    """Self time per row, span counts and wall total of one traced phase."""

    def __init__(self) -> None:
        self.rows: Dict[str, float] = {row: 0.0 for row in ROWS}
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.total_s = 0.0


#: Finished spans retained for the trace export; folding sees every span.
KEEP_SPANS = 20000


class LayerProbe:
    """Wraps :data:`LAYER_CALLS` with spans and folds them per phase."""

    def __init__(self):
        # Drained after every unit of work, so the buffer never fills.
        self.tracer = obs.Tracer(max_spans=1_000_000)
        self.kept: List[obs.Span] = []
        self.tables: Dict[str, PhaseTable] = {}
        self._saved: List[Tuple[object, str, bool, object]] = []
        self._children: Dict[int, float] = {}
        self._table: Optional[PhaseTable] = None

    # -- wrapping -------------------------------------------------------
    def _wrap(self, fn, span_name: str):
        span = self.tracer.span

        def probed(*args, **kwargs):
            with span(span_name):
                return fn(*args, **kwargs)

        probed.__wrapped__ = fn
        return probed

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("probes are already installed")
        for module, cls, attr, span_name in LAYER_CALLS:
            owner = _resolve(module, cls)
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            self._saved.append((owner, attr, own, original))
            setattr(owner, attr, self._wrap(getattr(owner, attr), span_name))

    def uninstall(self) -> None:
        for owner, attr, own, original in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- folding --------------------------------------------------------
    @contextmanager
    def phase(self, name: str):
        """Trace one phase under a root span; fold it into ``tables[name]``."""
        if self._table is not None:
            raise RuntimeError("phases do not nest")
        table = self.tables.setdefault(name, PhaseTable())
        self._table = table
        try:
            with self.tracer.span(ROOT_SPAN, phase=name):
                yield table
        finally:
            self.drain()
            self._table = None

    def drain(self) -> None:
        """Fold every finished span into the open phase's table.

        Spans finish children-first, so by the time a span is folded the
        durations of all its children are already in ``_children``.
        """
        finished = self.tracer.finished_spans()
        self.tracer.clear()
        table = self._table
        for sp in finished:
            duration = sp.duration_s
            row = _ROW_OF[sp.name]
            table.rows[row] += duration - self._children.pop(sp.span_id, 0.0)
            table.calls[sp.name] += 1
            table.inclusive[sp.name] += duration
            if sp.parent_id is None:
                table.total_s += duration
            else:
                self._children[sp.parent_id] = (
                    self._children.get(sp.parent_id, 0.0) + duration
                )
            if len(self.kept) < KEEP_SPANS:
                self.kept.append(sp)

    def export(self, stem: str) -> Tuple[str, str]:
        """Write the retained spans as JSONL and Chrome-trace JSON."""
        jsonl = f"{stem}.spans.jsonl"
        chrome = f"{stem}.trace.json"
        obs.write_spans_jsonl(jsonl, self.kept)
        obs.write_chrome_trace(chrome, spans=self.kept)
        return jsonl, chrome
