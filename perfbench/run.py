"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-steady --seed 1 --seconds 15 --trace 0

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.

Prints every metric with its unit, the failed-item count and the digest of
the modeled outputs, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
Exits 1 when any item failed a check and 2 when the program's source tree
is missing.  ``--record-golden`` re-pins the default-seed digests after an
intended model change.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("tune-cold", "serve-steady", "serve-fleet", "calibrate")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
#: Temporary files (mapping-cache directories) and trace exports.
TMP_DIR = os.path.join(ROOT, ".perfbench-tmp")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


def make_workload(name: str):
    from pimbench.calibrate import Calibrate
    from pimbench.serve import ServeFleet, ServeSteady
    from pimbench.tune_cold import TuneCold

    factories = {
        "tune-cold": lambda: TuneCold(TMP_DIR),
        "serve-steady": ServeSteady,
        "serve-fleet": ServeFleet,
        "calibrate": Calibrate,
    }
    return factories[name]()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-phase length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="pin this run's digests as the default-seed fixed points")
    args = parser.parse_args(argv)
    if args.seconds is None:
        try:
            with open(BENCHMARK_JSON) as fh:
                args.seconds = float(json.load(fh)["run_seconds"])
        except (OSError, ValueError, KeyError) as exc:
            parser.error(f"--seconds not given and {BENCHMARK_JSON} unreadable: {exc}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.record_golden and args.seed != 0:
        parser.error("--record-golden pins the default seed (0) only")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: program source tree {SRC!r} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"error: imported repro from {repro.__file__!r}, not {SRC!r}", file=sys.stderr)
        return 2
    from pimbench import digest, harness

    workload = make_workload(args.workload)
    golden = None if args.record_golden else digest.load_golden()
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
        report = harness.measure_traced(workload, args.seed, args.seconds, golden, stem)
    else:
        report = harness.measure(workload, args.seed, args.seconds, PROCESS_START, golden)
    if args.record_golden:
        digest.write_golden({workload.name: {i.key: i.digest for i in report.items
                                             if i.digest is not None}})
    for line in harness.render(report, workload.item):
        print(line)
    print(json.dumps(report.result()))
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
