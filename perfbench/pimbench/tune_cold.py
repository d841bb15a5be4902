"""tune-cold: one cold Auto-Tuner search per item.

Item: one ``AutoTuner.tune`` call with an empty in-memory memo and an
empty ``MappingCache`` directory that the tuner writes through.  A pass
covers every distinct LUT shape of ``EVAL_MODELS`` — prefill shapes plus
decode shapes at :data:`DECODE_BATCHES` — on each platform.  The seed
assigns half of each platform's shapes to the per-kernel regime and half
to the amortized one; the two regimes cost the tuner the same, so every
seed measures the same amount of search.  The seed also orders the pass,
round-robin over (platform, shape kind) strata, so a run that stops
part-way through a later pass still measures the pass's mix of work.  Each winner
is then checked, simulated (per-kernel winners only: the simulator does
not model resident LUTs) and re-scored.

The mapping layer does nearly all the work here and almost none in the
other workloads; the schedulers, the engine cost memo and the numeric
core are bypassed.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core import LUTShape
from repro.mapping import AutoTuner, estimate_latency, is_legal
from repro.mapping.store import MappingCache, mapping_to_dict
from repro.mapping.tuner import model_lut_shapes
from repro.pim import PIMSimulator, get_platform
from repro.workloads import EVAL_MODELS

from .digest import digest
from .harness import Item, Workload

PLATFORMS = ("upmem", "hbm-pim", "aim")
DECODE_BATCHES = (1, 8)


@dataclass(frozen=True)
class TuneItem:
    platform: str
    shape: LUTShape
    amortize: bool

    @property
    def key(self) -> str:
        s = self.shape
        mode = "amortized" if self.amortize else "per-kernel"
        return f"{self.platform}/n{s.n}_h{s.h}_f{s.f}_v{s.v}_ct{s.ct}/{mode}"


def lut_shapes() -> List[LUTShape]:
    """Every distinct LUT shape of the evaluation models, prefill then decode."""
    shapes: List[LUTShape] = []
    for config in EVAL_MODELS.values():
        prefill = model_lut_shapes(config)
        shapes += prefill
        for batch in DECODE_BATCHES:
            shapes += [dataclasses.replace(s, n=batch) for s in prefill]
    return list(dict.fromkeys(shapes))


@dataclass
class State:
    platforms: Dict[str, object]
    simulators: Dict[str, PIMSimulator]
    tmp_dir: str
    items: List[TuneItem]
    #: Relative model-vs-simulator error of each per-kernel winner.
    model_errors: List[float]


class TuneCold(Workload):
    name = "tune-cold"
    item = "one cold AutoTuner.tune call"

    def __init__(self, tmp_root: str):
        self.tmp_root = tmp_root

    def plan(self, seed: int) -> List[TuneItem]:
        rng = np.random.default_rng(seed)
        shapes = lut_shapes()
        strata: Dict[Tuple[str, str], List[TuneItem]] = {}
        for platform in PLATFORMS:
            amortized = set(rng.permutation(len(shapes))[: len(shapes) // 2].tolist())
            for i, shape in enumerate(shapes):
                kind = f"decode{shape.n}" if shape.n in DECODE_BATCHES else "prefill"
                strata.setdefault((platform, kind), []).append(
                    TuneItem(platform, shape, i in amortized))
        lanes = [[lane[i] for i in rng.permutation(len(lane))] for lane in strata.values()]
        lanes = [lanes[i] for i in rng.permutation(len(lanes))]
        depth = max(len(lane) for lane in lanes)
        return [lane[j] for j in range(depth) for lane in lanes if j < len(lane)]

    def setup(self, plan: List[TuneItem]) -> State:
        platforms = {name: get_platform(name) for name in PLATFORMS}
        os.makedirs(self.tmp_root, exist_ok=True)
        return State(
            platforms=platforms,
            simulators={name: PIMSimulator(p) for name, p in platforms.items()},
            tmp_dir=tempfile.mkdtemp(prefix="tune-cold-", dir=self.tmp_root),
            items=plan,
            model_errors=[],
        )

    def close(self, state: State) -> None:
        shutil.rmtree(state.tmp_dir, ignore_errors=True)

    def units(self, state: State):
        return [lambda item=item: [self._run_item(state, item)] for item in state.items]

    def _run_item(self, state: State, item: TuneItem) -> Item:
        platform = state.platforms[item.platform]
        cache_dir = tempfile.mkdtemp(dir=state.tmp_dir)
        try:
            cache = MappingCache(cache_dir)
            tuner = AutoTuner(platform, amortize_lut_distribution=item.amortize, cache=cache)
            start = time.perf_counter()
            result = tuner.tune(item.shape)
            latency = time.perf_counter() - start
            failures = check_winner(item, platform, result, cache)
            sim_total = None
            if not item.amortize:
                sim_total = state.simulators[item.platform].run(item.shape, result.mapping).total_s
                if not (np.isfinite(sim_total) and sim_total > 0):
                    failures.append(f"simulated total {sim_total!r} is not positive")
                else:
                    state.model_errors.append(abs(result.cost - sim_total) / sim_total)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return Item(key=item.key, latency_s=latency, failures=failures,
                    digest=digest(tuning_outputs(result, sim_total)))

    def summary(self, state: State) -> Dict[str, float]:
        errors = state.model_errors
        return {"mapping.model_err_pct": 100.0 * float(np.mean(errors)) if errors else 0.0}


def check_winner(item: TuneItem, platform, result, cache: MappingCache) -> List[str]:
    """Legal mapping, exact re-score, and a cache entry that reads back."""
    failures = []
    if not is_legal(item.shape, result.mapping, platform):
        failures.append(f"illegal winning mapping {result.mapping}")
    rescored = estimate_latency(item.shape, result.mapping, platform,
                                amortize_lut_distribution=item.amortize).total
    if rescored != result.cost:
        failures.append(f"re-scored cost {rescored!r} != returned cost {result.cost!r}")
    stored = cache.get(platform, item.shape, amortize=item.amortize)
    if stored != result:
        failures.append(f"mapping cache read back {stored!r}, wrote {result!r}")
    return failures


def tuning_outputs(result, sim_total) -> Tuple:
    """The modeled outputs of one tuned item, for its digest.

    ``candidates_evaluated`` is search effort, not a modeled output: a
    faster search may evaluate fewer candidates for the same winner.
    """
    return (
        dataclasses.asdict(result.shape),
        mapping_to_dict(result.mapping),
        dataclasses.asdict(result.latency),
        sim_total,
    )
