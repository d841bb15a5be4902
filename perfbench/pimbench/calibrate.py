"""calibrate: eLUT-NN calibration of a seeded text classifier.

Set-up trains a small ``TextClassifier`` on a seeded synthetic task, as a
stand-in for a pre-trained checkpoint.  Training from a random init
sometimes stalls on a plateau (about one seed in six learns half the
classes).  The plan therefore picks, untimed, the first of at most
:data:`MAX_ATTEMPTS` initializations whose training accuracy reaches
:data:`TRAIN_ACCURACY`, and set-up trains once from that initialization,
so every seed's set-up does the same work.

A pass is one deployment round on a fresh copy of the checkpoint:
``convert_to_lut_nn``, :data:`STEPS` calibration steps in one
``ELUTNNCalibrator.calibrate`` call, then freezing INT8 LUTs and
evaluating the deployed model on held-out batches through the host
kernels.  Item: one calibration step (forward, reconstruction loss,
backward, optimizer step), timed from outside by stamping each batch the
calibrator draws.

This is the only workload where ``autograd``, ``nn``, ``core`` and
``kernels`` do the work; the tuner and the schedulers do none.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro import core
from repro.nn import TextClassifier
from repro.workloads import SyntheticTextTask, sample_batches, train_classifier

from .harness import Item, Workload

TASK = dict(vocab_size=64, seq_len=16, num_classes=4, peak_mass=0.7)
MODEL = dict(dim=32, num_layers=2, num_heads=4)
V, CT = 4, 4
TRAIN_SAMPLES, TRAIN_BATCH, TRAIN_EPOCHS, TRAIN_LR = 512, 16, 6, 3e-3
TRAIN_ACCURACY, MAX_ATTEMPTS = 0.9, 4
CALIB_BATCH = 16
STEPS = 48
CONVERT_BATCHES = 8
TEST_SAMPLES, TEST_BATCH = 256, 64
BETA, LR = 10.0, 1e-3
#: Deployed INT8 accuracy below this fails the round (chance is 0.25).
ACCURACY_FLOOR = 0.5


@dataclass(frozen=True)
class Plan:
    seed: int
    train: list
    calib: list
    test: list
    #: Initialization the stand-in checkpoint trains from.
    attempt: int


@dataclass
class State:
    plan: Plan
    state_dict: dict
    original_accuracy: float
    deployed_accuracy: List[float]
    eval_samples: int = 0
    eval_s: float = 0.0


class _StampedBatches:
    """Yields the calibration batches, stamping when each is drawn."""

    def __init__(self, batches):
        self.batches = batches
        self.stamps: List[float] = []

    def __iter__(self):
        for batch in self.batches:
            self.stamps.append(time.perf_counter())
            yield batch


def _build(seed: int, attempt: int) -> TextClassifier:
    return TextClassifier(vocab_size=TASK["vocab_size"], max_seq_len=TASK["seq_len"],
                          num_classes=TASK["num_classes"],
                          rng=np.random.default_rng([seed, attempt]), **MODEL)


def _train(seed: int, attempt: int, train: list):
    """The stand-in checkpoint trained from one initialization, and whether it learned."""
    model = _build(seed, attempt)
    train_classifier(model, train, epochs=TRAIN_EPOCHS, lr=TRAIN_LR)
    return model, core.evaluate_accuracy(model, train) >= TRAIN_ACCURACY


class Calibrate(Workload):
    name = "calibrate"
    item = "one eLUT-NN calibration step"

    def plan(self, seed: int) -> Plan:
        task = SyntheticTextTask(seed=seed, **TASK)
        train = sample_batches(task, TRAIN_SAMPLES, TRAIN_BATCH)
        attempt = next((a for a in range(MAX_ATTEMPTS) if _train(seed, a, train)[1]), None)
        if attempt is None:
            raise RuntimeError(f"stand-in checkpoint for seed {seed} did not train "
                               f"to {TRAIN_ACCURACY} in {MAX_ATTEMPTS} attempts")
        return Plan(
            seed=seed,
            train=train,
            calib=sample_batches(task, STEPS * CALIB_BATCH, CALIB_BATCH),
            test=sample_batches(task, TEST_SAMPLES, TEST_BATCH),
            attempt=attempt,
        )

    def setup(self, plan: Plan) -> State:
        model, learned = _train(plan.seed, plan.attempt, plan.train)
        if not learned:
            raise RuntimeError(f"stand-in checkpoint for seed {plan.seed} did not "
                               f"retrain to {TRAIN_ACCURACY} from init {plan.attempt}")
        original = core.evaluate_accuracy(model, plan.test)
        return State(plan, model.state_dict(), original, [])

    def units(self, state: State):
        return [lambda: list(self._round(state))]

    def _round(self, state: State):
        plan = state.plan
        model = _build(plan.seed, plan.attempt)
        model.load_state_dict(state.state_dict)
        core.convert_to_lut_nn(model, [inputs for inputs, _ in plan.calib[:CONVERT_BATCHES]],
                               v=V, ct=CT, rng=np.random.default_rng(plan.seed + 1),
                               kmeans_iters=10)
        batches = _StampedBatches(plan.calib)
        result = core.ELUTNNCalibrator(beta=BETA, lr=LR).calibrate(model, batches)
        batches.stamps.append(time.perf_counter())

        core.set_lut_mode(model, "lut")
        core.freeze_all_luts(model, quantize_int8=True)
        start = time.perf_counter()
        deployed = core.evaluate_accuracy(model, plan.test)
        state.eval_s += time.perf_counter() - start
        state.eval_samples += sum(len(targets) for _, targets in plan.test)
        state.deployed_accuracy.append(deployed)

        round_failures = []
        if result.steps != len(plan.calib):
            round_failures.append(f"{result.steps} steps ran, {len(plan.calib)} planned")
        if deployed < ACCURACY_FLOOR:
            round_failures.append(f"deployed INT8 accuracy {deployed:.3f} < {ACCURACY_FLOOR}")
        latencies = np.diff(batches.stamps)
        for step, latency in enumerate(latencies):
            failures = list(round_failures)
            loss = result.loss_history[step] if step < len(result.loss_history) else None
            if loss is None or not np.isfinite(loss):
                failures.append(f"calibration loss {loss!r} is not finite")
            yield Item(key=f"step{step}", latency_s=float(latency), failures=failures)

    def summary(self, state: State) -> Dict[str, float]:
        if not state.deployed_accuracy:
            return {}
        return {
            "core.acc_drop_pct": 100.0 * (state.original_accuracy
                                          - float(np.mean(state.deployed_accuracy))),
            "kernels.samples_per_s": state.eval_samples / state.eval_s,
        }
