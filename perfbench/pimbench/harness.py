"""Timing loop, checks, statistics and the result line of every workload.

One run of a workload:

1. ``plan(seed)`` makes the inputs; the program sees only these.
2. Set-up (construction and warm-up) runs :data:`SETUP_REPEATS` times on
   fresh objects; ``setup_s`` is the import time plus their median.  The
   plan is made after the import time is taken and is not part of
   ``setup_s``.
3. The timed phase runs one whole pass over the planned items, then keeps
   going, unit by unit, until ``seconds`` have elapsed.  Workloads order a
   pass so that any prefix of it holds the pass's mix of work, and the
   first pass's digest always covers every item.  Every item is checked;
   a failed check, a raised exception or a modeled output that differs
   from its pinned digest fails the item.

End-to-end metrics come from that untraced run.  With ``trace=True`` the
run instead measures the per-layer metrics: one traced set-up, then whole
passes in which every unit of work runs three times — plain, with the
program's telemetry disabled, and under
:class:`~pimbench.probes.LayerProbe` — in an order that rotates from unit
to unit, so both overheads are measured on identical, interleaved work.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs

from . import digest as digests
from .probes import LayerProbe, ROWS

SETUP_REPEATS = 5
MAX_FAILURE_LINES = 20

#: name -> (unit, better); the untraced run reports exactly these.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "item_p50_ms": ("ms", "lower"),
    "item_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better); the traced run reports exactly these.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    **{row: ("s", "lower") for row in ROWS},
    "traced_total_s": ("s", "lower"),
    "setup.mapping.tune_s": ("s", "lower"),
    "mapping.searches": ("count", "lower"),
    "mapping.candidates": ("count", "lower"),
    "mapping.pruned_ratio": ("ratio", "higher"),
    "mapping.hit_ratio": ("ratio", "higher"),
    "mapping.model_err_pct": ("%", "lower"),
    "pim.simulate_calls": ("count", "lower"),
    "engine.warmup_s": ("s", "lower"),
    "engine.cost_hit_ratio": ("ratio", "higher"),
    "scheduler.steps": ("count", "lower"),
    "scheduler.us_per_step": ("us", "lower"),
    "disagg.steps": ("count", "lower"),
    "disagg.us_per_step": ("us", "lower"),
    "disagg.kv_transfers": ("count", "lower"),
    "cluster.us_per_request": ("us", "lower"),
    "core.step_ms": ("ms", "lower"),
    "core.acc_drop_pct": ("%", "lower"),
    "kernels.samples_per_s": ("1/s", "higher"),
    "obs.trace_overhead_pct": ("%", "lower"),
    "obs.telemetry_overhead_pct": ("%", "lower"),
}

#: Program counters whose deltas over the traced passes feed PER_LAYER.
COUNTERS = (
    "tuner.tune_calls",
    "tuner.cache_hits",
    "tuner.store_hits",
    "tuner.candidates_evaluated",
    "tuner.tilings_pruned",
    "scheduler.steps",
    "disagg.steps",
    "disagg.kv_transfers",
    "cluster.requests_routed",
    "calibration.steps",
)


@dataclass
class Item:
    """Outcome of one timed item."""

    key: str
    latency_s: float
    failures: List[str] = field(default_factory=list)
    #: Digest of the item's modeled outputs; None when it has none.
    digest: Optional[str] = None


class Workload:
    """Interface of a benchmark workload (see the modules beside this one)."""

    name = ""
    #: What one item is, shown with the sample count.
    item = ""

    def plan(self, seed: int):
        """The workload's inputs, a pure function of ``seed``."""
        raise NotImplementedError

    def setup(self, plan):
        """Construct and warm up; returns the state the passes run on."""
        raise NotImplementedError

    def units(self, state) -> List[Callable[[], List[Item]]]:
        """One pass: callables that each run some items and return them."""
        raise NotImplementedError

    def summary(self, state) -> Dict[str, float]:
        """Workload-specific values accumulated so far (see PER_LAYER)."""
        return {}

    def close(self, state) -> None:
        """Release what ``setup`` acquired."""


@dataclass
class Report:
    """Everything one run measured; ``result_line`` is the contract output."""

    workload: str
    seed: int
    trace: bool
    items: List[Item]
    metrics: Dict[str, float]
    metric_units: Dict[str, Tuple[str, str]]
    extras: Dict[str, float]
    passes: int
    pass_digest: Optional[str]

    @property
    def attempted(self) -> int:
        return len(self.items)

    @property
    def failed(self) -> int:
        return sum(1 for item in self.items if item.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def result(self) -> dict:
        return {
            "correct": self.attempted > 0 and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit}
                for name, (unit, _) in self.metric_units.items()
            },
        }


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _counter_values() -> Dict[str, float]:
    registry = obs.get_registry()
    values = {}
    for name in COUNTERS:
        counter = registry.get(name)
        values[name] = float(counter.value) if counter is not None else 0.0
    return values


def _run_unit(unit: Callable[[], List[Item]], index: int) -> List[Item]:
    """Run one unit; an exception becomes one failed item."""
    try:
        return unit()
    except Exception:  # noqa: BLE001 - a raising unit must count, not abort
        return [Item(key=f"unit{index}/error", latency_s=0.0,
                     failures=[traceback.format_exc(limit=4)])]


def _timed_units(workload: Workload, state, seconds: float):
    """Units of one whole pass, then more until ``seconds`` have elapsed.

    Yields ``(pass index, unit index, unit)``.
    """
    start = time.perf_counter()
    passes = 0
    while True:
        for index, unit in enumerate(workload.units(state)):
            if passes and time.perf_counter() - start >= seconds:
                return
            yield passes, index, unit
        passes += 1
        if time.perf_counter() - start >= seconds:
            return


def check_digests(workload: str, items: List[Item], seed: int,
                  golden: Optional[Dict[str, Dict[str, str]]]) -> Optional[str]:
    """Fail items whose digest differs from an earlier pass or the pin.

    Returns the digest of the first pass's items (None without digests).
    """
    first: Dict[str, str] = {}
    for item in items:
        if item.digest is None:
            continue
        seen = first.setdefault(item.key, item.digest)
        if seen != item.digest:
            item.failures.append(
                f"modeled output changed between passes: {seen} -> {item.digest}")
    if seed == digests.DEFAULT_SEED and golden is not None:
        pinned = golden.get(workload, {})
        for item in items:
            if item.digest is not None and pinned.get(item.key) != item.digest:
                item.failures.append(
                    f"modeled output differs from the pinned digest "
                    f"{pinned.get(item.key)} (got {item.digest})")
    return digests.pass_digest(first.items()) if first else None


def measure(workload: Workload, seed: int, seconds: float, process_start: float,
            golden: Optional[Dict[str, Dict[str, str]]] = None) -> Report:
    """The untraced run: end-to-end metrics."""
    import_s = time.perf_counter() - process_start
    plan = workload.plan(seed)
    setups: List[float] = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.close(state)
        obs.reset()
        start = time.perf_counter()
        state = workload.setup(plan)
        setups.append(time.perf_counter() - start)
    items: List[Item] = []
    passes = 0
    try:
        gc.collect()
        start = time.perf_counter()
        for pass_index, index, unit in _timed_units(workload, state, seconds):
            items += _run_unit(unit, index)
            passes = pass_index + 1
        wall = time.perf_counter() - start
        extras = workload.summary(state)
    finally:
        workload.close(state)
    lat_ms = [item.latency_s * 1e3 for item in items]
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "items_per_s": len(items) / wall,
        "item_p50_ms": percentile(lat_ms, 50),
        "item_p90_ms": percentile(lat_ms, 90),
        "peak_rss_mb": peak_rss_mb(),
    }
    pass_hash = check_digests(workload.name, items, seed, golden)
    return Report(workload.name, seed, False, items, metrics, END_TO_END,
                  extras, passes, pass_hash)


def _overhead_pct(slow_s: float, fast_s: float) -> float:
    return (slow_s / fast_s - 1.0) * 100.0 if fast_s > 0 else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


VARIANTS = ("plain", "telemetry-off", "traced")


def measure_traced(workload: Workload, seed: int, seconds: float,
                   golden: Optional[Dict[str, Dict[str, str]]] = None,
                   export_stem: Optional[str] = None) -> Report:
    """The traced run: per-layer metrics on identical, interleaved work."""
    plan = workload.plan(seed)
    probe = LayerProbe()
    obs.reset()
    with probe.installed(), probe.phase("setup"):
        state = workload.setup(plan)
    items: List[Item] = []
    wall = dict.fromkeys(VARIANTS, 0.0)
    delta = dict.fromkeys(COUNTERS, 0.0)
    passes = 0
    try:
        # One untimed unit first, so no variant pays first-call costs.
        items += _run_unit(workload.units(state)[0], 0)
        gc.collect()
        timed_units = _timed_units(workload, state, seconds)
        for turn, (pass_index, index, unit) in enumerate(timed_units):
            passes = pass_index + 1
            for variant in VARIANTS[turn % 3:] + VARIANTS[:turn % 3]:
                start = time.perf_counter()
                if variant == "plain":
                    items += _run_unit(unit, index)
                elif variant == "telemetry-off":
                    obs.set_enabled(False)
                    try:
                        items += _run_unit(unit, index)
                    finally:
                        obs.set_enabled(True)
                else:
                    before = _counter_values()
                    with probe.installed(), probe.phase("timed"):
                        items += _run_unit(unit, index)
                    after = _counter_values()
                    for name in COUNTERS:
                        delta[name] += after[name] - before[name]
                wall[variant] += time.perf_counter() - start
        extras = workload.summary(state)
    finally:
        workload.close(state)

    timed = probe.tables["timed"]
    calls, inclusive = timed.calls, timed.inclusive
    searches = (delta["tuner.tune_calls"] - delta["tuner.cache_hits"]
                - delta["tuner.store_hits"])
    metrics: Dict[str, float] = {row: timed.rows[row] for row in ROWS}
    metrics.update({
        "traced_total_s": timed.total_s,
        "setup.mapping.tune_s": probe.tables["setup"].rows["mapping.tune_s"],
        "mapping.searches": searches,
        "mapping.candidates": delta["tuner.candidates_evaluated"],
        "mapping.pruned_ratio": _ratio(delta["tuner.tilings_pruned"],
                                       delta["tuner.candidates_evaluated"]),
        "mapping.hit_ratio": _ratio(delta["tuner.cache_hits"] + delta["tuner.store_hits"],
                                    delta["tuner.tune_calls"]),
        "mapping.model_err_pct": extras.get("mapping.model_err_pct", 0.0),
        "pim.simulate_calls": float(calls["pim.simulate"]),
        "engine.warmup_s": extras.get("engine.warmup_s", 0.0),
        "engine.cost_hit_ratio": (
            1.0 - _ratio(calls["engine.model"], calls["engine.cost"])
            if calls["engine.cost"] else 0.0),
        "scheduler.steps": delta["scheduler.steps"],
        "scheduler.us_per_step": _ratio(timed.rows["scheduler.run_s"] * 1e6,
                                        delta["scheduler.steps"]),
        "disagg.steps": delta["disagg.steps"],
        "disagg.us_per_step": _ratio(timed.rows["disagg.run_s"] * 1e6,
                                     delta["disagg.steps"]),
        "disagg.kv_transfers": delta["disagg.kv_transfers"],
        "cluster.us_per_request": _ratio(timed.rows["cluster.run_s"] * 1e6,
                                         delta["cluster.requests_routed"]),
        "core.step_ms": _ratio(inclusive["core.calibrate"] * 1e3,
                               delta["calibration.steps"]),
        "core.acc_drop_pct": extras.get("core.acc_drop_pct", 0.0),
        "kernels.samples_per_s": extras.get("kernels.samples_per_s", 0.0),
        "obs.trace_overhead_pct": _overhead_pct(wall["traced"], wall["plain"]),
        "obs.telemetry_overhead_pct": _overhead_pct(wall["plain"], wall["telemetry-off"]),
    })
    if export_stem is not None:
        probe.export(export_stem)
    pass_hash = check_digests(workload.name, items, seed, golden)
    return Report(workload.name, seed, True, items, metrics, PER_LAYER,
                  extras, passes, pass_hash)


def render(report: Report, item_name: str) -> List[str]:
    """Human-readable lines: every metric with its unit, then the digest."""
    lat = [item.latency_s for item in report.items]
    lines = [
        f"workload {report.workload} seed {report.seed} "
        f"({'traced' if report.trace else 'untraced'}): {report.attempted} items "
        f"({item_name}) in {report.passes} pass(es) started, {report.failed} failed, "
        f"failed_frac {report.failed_frac:.4f}, latency samples {len(lat)}",
    ]
    for name, (unit, better) in report.metric_units.items():
        lines.append(f"  {name:<28} {report.metrics[name]:>14.6g} {unit:<6} ({better} is better)")
    for name, value in sorted(report.extras.items()):
        if name not in report.metrics:
            lines.append(f"  {name:<28} {value:>14.6g}")
    failed = [item for item in report.items if item.failures]
    for item in failed[:MAX_FAILURE_LINES]:
        lines.append(f"  FAILED {item.key}: {item.failures[0].strip()}")
    if len(failed) > MAX_FAILURE_LINES:
        lines.append(f"  ... and {len(failed) - MAX_FAILURE_LINES} more failed items")
    if report.pass_digest is not None:
        lines.append(f"digest {report.workload} seed={report.seed} pass={report.pass_digest}")
    else:
        lines.append(f"digest {report.workload} seed={report.seed} (no modeled outputs)")
    return lines
