"""serve-steady and serve-fleet: the serving simulators over warm costs.

Both workloads replay seeded Poisson streams of BERT-base requests (open
loop in modeled time) as a load sweep over :data:`RHOS` crossed with
:data:`STREAMS_PER_RHO` sub-seeds.  The requests and the policy are the
``serve-sim`` command's defaults: upmem, prompt 128, generate 32, batch
hint 1, at most 8 sequences per batch and a queue cap of 1024.  On the
host each stream is one call from a single caller, so the host side is a
closed loop with one client.

Set-up tunes every prefill shape and every decode batch size from 1 to
:data:`MAX_BATCH` and pre-costs every engine cost-memo key the streams can
reach, then proves the tuner is warm: the timed phase must evaluate no
tuner candidates, and a set-up that would leave any fails loudly.

* ``serve-steady`` — item: one ``RequestScheduler.run`` over one stream.
  The event loop and the cost memo do the work; the tuner does none.
* ``serve-fleet`` — items: the same streams through
  ``DisaggScheduler(placement="hybrid")`` and through a 2-replica
  ``ClusterScheduler`` that loses replica 1 when the middle request
  arrives.  Same serving core, used through the transfer heap, routing and
  failover.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro import obs
from repro.baselines import wimpy_host
from repro.cluster import ClusterScheduler, ReplicaFailure
from repro.core import LUTShape
from repro.engine import (DisaggScheduler, EngineCostModel, GenerationServer,
                          Request, RequestScheduler, SchedulerPolicy,
                          poisson_requests)
from repro.mapping.tuner import model_lut_shapes
from repro.pim import get_platform
from repro.workloads import EVAL_MODELS

from .digest import digest
from .harness import Item, Workload

MODEL = "bert-base"
PLATFORM = "upmem"
#: Request and policy shape: the defaults of ``repro.cli`` ``serve-sim``.
PROMPT_LEN = 128
GENERATE_LEN = 32
MAX_BATCH = 8
QUEUE_CAP = 1024
REQUESTS = 100
RHOS = (0.5, 0.8, 1.1, 1.4, 1.6)
STREAMS_PER_RHO = 6
#: The request whose unbatched service time normalizes the load levels.
PROBE = Request(request_id=-1, arrival_s=0.0, prompt_len=PROMPT_LEN,
                generate_len=GENERATE_LEN)
PARTITION_TOL_S = 1e-9


@dataclass(frozen=True)
class StreamSpec:
    rho: float
    index: int
    seed: int

    @property
    def key(self) -> str:
        return f"rho{self.rho}/s{self.index}"


@dataclass
class State:
    config: object
    server: GenerationServer
    cost: EngineCostModel
    policy: SchedulerPolicy
    service_s: float
    warmup_s: float
    streams: List[Tuple[StreamSpec, List[Request]]]
    #: (item key, scheduler, stream, result check) per item.  ``run`` is
    #: looked up at call time, so layer probes installed later still apply.
    calls: List[Tuple[str, object, List[Request], Callable]] = field(default_factory=list)


def _decode_shapes(config, batch: int, v: int, ct: int) -> List[LUTShape]:
    return [LUTShape(n=batch, h=h, f=f, v=v, ct=ct) for _, h, f in config.linear_layer_shapes()]


def _tuner_candidates():
    counter = obs.get_registry().get("tuner.candidates_evaluated")
    return None if counter is None else counter.value


def _assert_warm(server: GenerationServer, config) -> None:
    """Re-tune every shape the streams can need; any search is a failure."""
    before = _tuner_candidates() or 0.0
    shaped = config.with_(seq_len=PROMPT_LEN, batch_size=1)
    server.prefill_engine.tuner.tune_many(model_lut_shapes(shaped, v=server.v, ct=server.ct))
    for batch in range(1, MAX_BATCH + 1):
        server.decode_engine.tuner.tune_many(_decode_shapes(config, batch, server.v, server.ct))
    searched = (_tuner_candidates() or 0.0) - before
    if searched:
        raise RuntimeError(
            f"serving warm-up incomplete: {searched:g} tuner candidates were still "
            f"evaluated for shapes the timed phase needs")


def _warm_costs(cost: EngineCostModel) -> None:
    """Cost every memo key the streams can reach (decode contexts by bucket)."""
    cost.prefill_s(PROMPT_LEN, 1)
    bucket = cost.context_bucket
    for batch in range(1, MAX_BATCH + 1):
        for context in range(PROMPT_LEN, PROMPT_LEN + GENERATE_LEN + bucket, bucket):
            cost.decode_step_s(batch, context)


class _Serve(Workload):
    def plan(self, seed: int) -> List[StreamSpec]:
        rng = np.random.default_rng(seed)
        seeds = rng.integers(0, 2**31 - 1, size=len(RHOS) * STREAMS_PER_RHO)
        # Sub-seed-major order: any prefix of a pass sweeps every load level.
        return [
            StreamSpec(rho, k, int(seeds[i * STREAMS_PER_RHO + k]))
            for k in range(STREAMS_PER_RHO)
            for i, rho in enumerate(RHOS)
        ]

    def setup(self, plan: List[StreamSpec]) -> State:
        config = EVAL_MODELS[MODEL]
        server = GenerationServer(get_platform(PLATFORM), wimpy_host())
        policy = SchedulerPolicy(max_batch_size=MAX_BATCH, max_queue_len=QUEUE_CAP)
        cost = EngineCostModel(server, config)
        start = time.perf_counter()
        server.warmup(config, prompt_len=PROMPT_LEN, batch_size=1)
        for batch in range(2, MAX_BATCH + 1):
            server.decode_engine.tuner.tune_many(
                _decode_shapes(config, batch, server.v, server.ct))
        _warm_costs(cost)
        warmup_s = time.perf_counter() - start
        _assert_warm(server, config)
        reference = RequestScheduler(server, config, policy=policy)
        reference.cost = cost
        service_s = reference.fifo_service_time(PROBE)
        streams = [
            (spec, poisson_requests(
                REQUESTS, spec.rho / service_s, prompt_len=PROMPT_LEN,
                generate_len=GENERATE_LEN, seed=spec.seed))
            for spec in plan
        ]
        state = State(config, server, cost, policy, service_s, warmup_s, streams)
        state.calls = self.calls(state)
        return state

    def calls(self, state: State) -> List[Tuple[str, object, List[Request], Callable]]:
        """Construct the schedulers; one entry per timed item of a pass."""
        raise NotImplementedError

    def units(self, state: State):
        return [lambda call=call: [self._item(*call)] for call in state.calls]

    def summary(self, state: State) -> Dict[str, float]:
        return {"engine.warmup_s": state.warmup_s}

    def _item(self, key: str, scheduler, stream: List[Request], check) -> Item:
        before = _tuner_candidates()
        start = time.perf_counter()
        result = scheduler.run(stream)
        latency = time.perf_counter() - start
        failures = check(result, len(stream))
        after = _tuner_candidates()
        if before is not None and after != before:
            failures.append(f"tuner evaluated {after - before:g} candidates in the timed phase")
        return Item(key=key, latency_s=latency, failures=failures,
                    digest=digest(schedule_outputs(result)))


class ServeSteady(_Serve):
    name = "serve-steady"
    item = "one RequestScheduler.run over a 100-request stream"

    def calls(self, state: State):
        scheduler = RequestScheduler(state.server, state.config, policy=state.policy)
        scheduler.cost = state.cost
        return [(spec.key, scheduler, stream, check_schedule)
                for spec, stream in state.streams]


class ServeFleet(_Serve):
    name = "serve-fleet"
    item = "one DisaggScheduler.run or ClusterScheduler.run over a 100-request stream"

    def calls(self, state: State):
        disagg = DisaggScheduler(state.server, state.config, policy=state.policy,
                                 placement="hybrid")
        disagg.cost = state.cost
        disagg.prefill_cost = state.cost
        calls = []
        for spec, stream in state.streams:
            cluster = ClusterScheduler(
                state.server, state.config, replicas=2, policy=state.policy,
                cost_model=state.cost,
                failures=[ReplicaFailure(replica=1, at_s=stream[len(stream) // 2].arrival_s)],
            )
            calls.append((f"disagg/{spec.key}", disagg, stream, check_schedule))
            calls.append((f"cluster/{spec.key}", cluster, stream, check_cluster))
        return calls


def _partition_error(result) -> float:
    return abs(sum(result.phase_seconds.values()) - result.busy_s)


def check_schedule(result, offered: int) -> List[str]:
    """Conservation and the phase partition of one ScheduleResult."""
    failures = []
    if result.completed + result.rejected != offered:
        failures.append(f"{offered} offered but {result.completed} completed "
                        f"+ {result.rejected} rejected")
    gap = _partition_error(result)
    if gap > PARTITION_TOL_S:
        failures.append(f"phase seconds miss busy seconds by {gap:.3g} s")
    return failures


def check_cluster(result, offered: int) -> List[str]:
    """Conservation across reject, shed and failover; per-replica partitions.

    A failed replica's busy time before the failure is in ``busy_s`` but
    its phases are not in ``phase_seconds`` (the program aggregates phases
    of surviving replicas only), so the partition is checked on every
    replica's own result and the cluster phases against the survivors'.
    """
    failures = []
    if result.completed + result.rejected + result.shed != offered:
        failures.append(f"{offered} offered but {result.completed} completed + "
                        f"{result.rejected} rejected + {result.shed} shed")
    survivors: Dict[str, float] = {}
    alive = [r for r, at in enumerate(result.replica_failed_at) if at is None]
    for replica, rep_result in enumerate(result.replica_results):
        gap = _partition_error(rep_result)
        if gap > PARTITION_TOL_S:
            failures.append(f"replica {replica} phase seconds miss busy by {gap:.3g} s")
        if replica in alive:
            for phase, seconds in rep_result.phase_seconds.items():
                survivors[phase] = survivors.get(phase, 0.0) + seconds
    keys = set(survivors) | set(result.phase_seconds)
    worst = max((abs(survivors.get(k, 0.0) - result.phase_seconds.get(k, 0.0)) for k in keys),
                default=0.0)
    if worst > PARTITION_TOL_S:
        failures.append(f"cluster phases differ from the survivors' by {worst:.3g} s")
    return failures


_SCHEDULE_FIELDS = (
    "completed", "rejected", "steps", "makespan_s", "busy_s", "prefill_tokens",
    "generated_tokens", "ttft_p50_s", "ttft_p95_s", "ttft_p99_s", "tpot_p50_s",
    "tpot_p95_s", "tpot_p99_s", "e2e_p50_s", "e2e_p95_s", "e2e_p99_s", "mean_e2e_s",
)
_EXTRA_FIELDS = {
    "ScheduleResult": ("mean_batch_occupancy", "peak_batch_occupancy", "placement",
                       "kv_transfers", "kv_transfer_s", "prefill_pool_busy_s",
                       "decode_pool_busy_s"),
    "ClusterResult": ("shed", "failovers", "replica_routed", "replica_failed_at"),
}


def schedule_outputs(result) -> dict:
    """The modeled aggregates of a ScheduleResult or ClusterResult."""
    fields = _SCHEDULE_FIELDS + _EXTRA_FIELDS[type(result).__name__]
    out = {name: getattr(result, name) for name in fields}
    out["phase_seconds"] = dict(result.phase_seconds)
    return out
