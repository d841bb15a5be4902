"""Tests of the benchmark itself: its contract file, probes, checks and seeds."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from repro.core import LUTShape
from repro.engine import GenerationServer
from repro.mapping import AutoTuner
from repro.mapping.store import MappingCache
from repro.pim import PIMSimulator, get_platform

from pimbench import digest, harness, serve
from pimbench.calibrate import Calibrate
from pimbench.probes import ROWS, LayerProbe
from pimbench.serve import ServeFleet, ServeSteady
from pimbench.tune_cold import TuneCold

from conftest import BENCH, ROOT

SMALL = LUTShape(n=512, h=64, f=128, v=4, ct=8)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    sys.path.insert(0, BENCH)
    import run

    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == harness.PER_LAYER
    assert max(m["bound"] for m in doc["end_to_end"]) == next(
        m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")


def test_self_times_sum_to_the_traced_total(tmp_path):
    platform = get_platform("upmem")
    probe = LayerProbe()
    with probe.installed():
        with probe.phase("timed"):
            result = AutoTuner(platform, cache=MappingCache(str(tmp_path))).tune(SMALL)
            PIMSimulator(platform).run(SMALL, result.mapping)
            sum(range(100_000))  # benchmark-side work lands in other_s
    assert not hasattr(AutoTuner.tune, "__wrapped__")  # uninstalled

    table = probe.tables["timed"]
    assert set(table.rows) == set(ROWS) and "other_s" in table.rows
    assert sum(table.rows.values()) == pytest.approx(table.total_s, rel=1e-9, abs=1e-12)
    assert table.rows["mapping.tune_s"] > 0
    assert table.rows["mapping.cache_io_s"] > 0  # get before the search, put after
    assert table.rows["pim.simulate_s"] > 0
    assert table.rows["other_s"] > 0
    assert table.calls["mapping.cache_io"] == 2
    assert len(probe.kept) == sum(table.calls.values())


def test_probes_wrap_calls_the_program_makes_internally():
    """A nested call (the tuner inside the server warm-up) gets its own row."""
    from repro.baselines import wimpy_host
    from repro.workloads import EVAL_MODELS

    server = GenerationServer(get_platform("upmem"), wimpy_host())
    probe = LayerProbe()
    with probe.installed(), probe.phase("setup"):
        server.warmup(EVAL_MODELS["bert-base"], prompt_len=16, batch_size=1)
    table = probe.tables["setup"]
    assert table.calls["engine.warmup"] == 1
    assert table.calls["mapping.tune"] == 8  # 4 prefill + 4 decode shapes
    assert table.rows["mapping.tune_s"] > table.rows["engine.cost_s"]
    assert sum(table.rows.values()) == pytest.approx(table.total_s, rel=1e-9, abs=1e-12)


def _run_items(workload, state):
    return [item for unit in workload.units(state) for item in unit()]


def test_a_corrupted_modeled_output_is_counted_as_failed(tmp_path, monkeypatch):
    workload = TuneCold(str(tmp_path))
    plan = [item for item in workload.plan(digest.DEFAULT_SEED) if not item.amortize][:2]
    state = workload.setup(plan)
    golden = digest.load_golden()
    try:
        clean = _run_items(workload, state)
        harness.check_digests(workload.name, clean, digest.DEFAULT_SEED, golden)
        assert [item.failures for item in clean] == [[], []]

        # One ulp-scale change to the simulator's total passes every other
        # check; only the pinned digest catches it.
        original = PIMSimulator.run

        def corrupted(self, *args, **kwargs):
            report = original(self, *args, **kwargs)
            return dataclasses.replace(report, kernel_s=report.kernel_s * (1 + 2**-40))

        monkeypatch.setattr(PIMSimulator, "run", corrupted)
        bad = _run_items(workload, state)
    finally:
        workload.close(state)
    assert all(not item.failures for item in bad)
    harness.check_digests(workload.name, bad, digest.DEFAULT_SEED, golden)
    assert all("pinned digest" in item.failures[0] for item in bad)

    report = harness.Report(workload.name, digest.DEFAULT_SEED, False, clean + bad,
                            dict.fromkeys(harness.END_TO_END, 1.0), harness.END_TO_END,
                            {}, 2, None)
    assert report.failed == 2 and report.failed_frac == 0.5
    assert report.result()["correct"] is False


def test_a_digest_that_changes_between_passes_fails():
    items = [harness.Item("a", 0.1, digest="x"), harness.Item("a", 0.1, digest="y")]
    harness.check_digests("w", items, seed=7, golden=None)
    assert not items[0].failures
    assert "between passes" in items[1].failures[0]


@pytest.mark.parametrize("workload", [TuneCold("unused"), ServeSteady(), ServeFleet(), Calibrate()],
                         ids=lambda w: w.name)
def test_seed_changes_the_generated_inputs_and_nothing_else(workload):
    a, again, b = workload.plan(1), workload.plan(1), workload.plan(2)
    assert repr(a) == repr(again)
    assert repr(a) != repr(b)
    if isinstance(workload, TuneCold):
        # Same shapes on the same platforms, same regime split; order and
        # regime assignment differ.
        cells = lambda plan: sorted((i.platform, repr(i.shape)) for i in plan)  # noqa: E731
        assert cells(a) == cells(b)
        assert sum(i.amortize for i in a) == sum(i.amortize for i in b) == len(a) // 2
        assert [(i.platform, i.shape, i.amortize) for i in a] != [
            (i.platform, i.shape, i.amortize) for i in b]
    elif isinstance(workload, Calibrate):
        shapes = lambda batches: [(x.shape, y.shape) for x, y in batches]  # noqa: E731
        for field in ("train", "calib", "test"):
            assert shapes(getattr(a, field)) == shapes(getattr(b, field))
        assert not np.array_equal(a.calib[0][0], b.calib[0][0])
    else:
        assert [(s.rho, s.index) for s in a] == [(s.rho, s.index) for s in b]
        assert all(x.seed != y.seed for x, y in zip(a, b))


def test_serve_traffic_is_the_serve_sim_default():
    from repro.cli import build_parser

    args = build_parser().parse_args(["serve-sim"])
    assert (args.model, args.platform) == (serve.MODEL, serve.PLATFORM)
    assert (args.prompt_len, args.generate_len, args.batch) == (
        serve.PROMPT_LEN, serve.GENERATE_LEN, serve.PROBE.batch)
    assert (args.max_batch, args.queue_cap) == (serve.MAX_BATCH, serve.QUEUE_CAP)


def test_calibrate_setup_work_does_not_depend_on_the_seed(monkeypatch):
    """A seed whose first init stalls still trains once in set-up."""
    from pimbench import calibrate

    workload = Calibrate()
    stalled, plain = workload.plan(3), workload.plan(0)
    assert stalled.attempt > plain.attempt
    trainings = []
    original = calibrate.train_classifier
    monkeypatch.setattr(calibrate, "train_classifier",
                        lambda *a, **k: trainings.append(1) or original(*a, **k))
    for plan in (stalled, plain):
        trainings.clear()
        workload.setup(plan)
        assert len(trainings) == 1


def test_seconds_default_to_the_run_seconds_of_benchmark_json():
    sys.path.insert(0, BENCH)
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    assert run.parse_args(["--workload", "calibrate"]).seconds == run_seconds


def test_an_incomplete_serving_warm_up_fails_loudly(monkeypatch):
    from repro.baselines import wimpy_host
    from repro.workloads import EVAL_MODELS

    monkeypatch.setattr(serve, "PROMPT_LEN", 16)
    monkeypatch.setattr(serve, "MAX_BATCH", 2)
    config = EVAL_MODELS["bert-base"]
    server = GenerationServer(get_platform("upmem"), wimpy_host())
    server.warmup(config, prompt_len=16, batch_size=1)  # decode batch 2 left cold
    with pytest.raises(RuntimeError, match="warm-up incomplete"):
        serve._assert_warm(server, config)
    serve._assert_warm(server, config)  # the failed check itself tuned the rest


def test_without_the_source_tree_the_benchmark_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tune-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
