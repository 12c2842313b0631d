"""Application benchmark: the paper's programs end to end, on two clocks.

Run from the repository root::

    python3 appbench/run.py --workload fig13_orders --seed 7 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced passes with passes whose layer entry
points are wrapped in spans, reports the per-layer metrics and writes the
spans of the first traced passes to
``.appbench/spans-<workload>-seed<seed>.jsonl``.  The last line of
standard output is one JSON object; the exit code is non-zero when any
program raised or returned a result that differs from the oracle.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import traceback
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"no source tree at {ROOT / 'src'}: run from a repository checkout")
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402  (needs the source tree on the path)
from spans import Instrumentation, SpanRecorder  # noqa: E402
from workloads import WORKLOADS, PassOutcome, State, canonical  # noqa: E402

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("virtual_s", "virtual-s"),
    ("choice_regret", "ratio"),
    ("peak_rss_mb", "MiB"),
]

#: complete set-ups per run; setup_s is their median.
SETUPS = 5
#: untraced passes a run makes even when --seconds is already used up.
MIN_PASSES = 3
#: a fixed piece of pure-Python work, timed before and after every pass
#: and set-up to measure how fast the shared host is running right now:
#: rounds of building and scanning row-sized dicts, like a query result.
CALIBRATION_ROUNDS = 4
CALIBRATION_ROWS = 2500
#: the calibration loop's time on the 2-vCPU development host when no
#: neighbour competes for it; reported times are scaled to this speed.
REFERENCE_CALIBRATION_S = 0.0023
#: traced passes whose spans are kept and written out; later traced
#: passes still give per-layer metrics, but their spans are dropped so
#: memory stays flat (one fig13_orders pass records about 45 000 spans).
EXPORTED_PASSES = 3


class Tally:
    """Operations attempted and failed, across every checked pass.

    Each result is kept only as a digest of its order-insensitive form, so
    memory stays flat however many passes a run makes; the digests are
    compared with the oracle's at the end of the run.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._digests: Counter = Counter()

    def record(self, state: State, outcome: PassOutcome) -> None:
        for operation in state.operations:
            self.attempted += 1
            value = outcome.results.get(operation.label)
            if isinstance(value, Exception):
                self.failed += 1
                print(f"{operation.label} raised:", file=sys.stderr)
                traceback.print_exception(value, file=sys.stderr)
            else:
                self._digests[(operation.group, operation.label,
                               digest(value))] += 1
        outcome.results.clear()

    def settle(self, reference: dict[str, Any]) -> None:
        """Count every recorded result that differs from the oracle."""
        expected = {group: digest(value) for group, value in reference.items()}
        for (group, label, found), count in self._digests.items():
            if found != expected[group]:
                self.failed += count
                print(f"{label}: result differs from the oracle",
                      file=sys.stderr)


def calibrate() -> float:
    """Seconds the host takes for the fixed calibration work right now.

    The collector is paused meanwhile: a collection would walk the
    workload's heap, and the loop must time the host, not the heap.
    """
    gc.disable()
    try:
        started = perf_counter()
        total = 0
        for _ in range(CALIBRATION_ROUNDS):
            rows = [
                {"id": i, "group": i % 7, "name": "n"}
                for i in range(CALIBRATION_ROWS)
            ]
            for _ in range(3):
                for row in rows:
                    if row["group"] == 3:
                        total += row["id"]
        return perf_counter() - started
    finally:
        gc.enable()


def slowdown(before: float, after: float) -> float:
    """How much slower than the reference the host ran around a timing."""
    return (before + after) / (2 * REFERENCE_CALIBRATION_S)


def digest(value: Any) -> str:
    """A fingerprint of ``value`` that ignores row order (see canonical)."""
    return hashlib.sha256(repr(canonical(value)).encode()).hexdigest()


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    setups: int = SETUPS,
    min_passes: int = MIN_PASSES,
) -> dict[str, Any]:
    """Run one workload; returns the report plus every pass's raw values."""
    workload = WORKLOADS[workload_name](seed)
    tally = Tally()

    setup_seconds = []
    state = None
    for _ in range(setups):
        if state is not None:
            state.close()
            state = None
            gc.collect()
        before = calibrate()
        started = perf_counter()
        state = workload.setup()
        warm_up = workload.run_pass(state)
        elapsed = perf_counter() - started
        setup_seconds.append(elapsed / slowdown(before, calibrate()))
        tally.record(state, warm_up)

    recorder = SpanRecorder() if trace else None
    probes = layers.probes() if trace else []
    untraced: list[PassOutcome] = []
    traced: list[PassOutcome] = []
    layer_passes: list[dict[str, float]] = []
    deadline = perf_counter() + seconds
    try:
        while len(untraced) < min_passes or perf_counter() < deadline:
            gc.collect()
            before = calibrate()
            outcome = workload.run_pass(state)
            outcome.slowdown = slowdown(before, calibrate())
            tally.record(state, outcome)
            untraced.append(outcome)
            if not trace:
                continue
            gc.collect()
            recorder.pass_id = len(traced)
            first = len(recorder.spans)
            before = layers.engine_counters(state.databases)
            before_speed = calibrate()
            with Instrumentation(recorder, probes):
                outcome = workload.run_pass(state, recorder)
            outcome.slowdown = slowdown(before_speed, calibrate())
            after = layers.engine_counters(state.databases)
            tally.record(state, outcome)
            traced.append(outcome)
            layer_passes.append(
                layers.pass_metrics(
                    recorder.spans,
                    first,
                    len(recorder.spans),
                    outcome.counters,
                    {key: after[key] - before[key] for key in after},
                )
            )
            if len(traced) > EXPORTED_PASSES:
                del recorder.spans[first:]
    finally:
        state.close()

    # On a shared host the same pass runs up to 2x slower while neighbours
    # load the CPUs, for stretches longer than a run.  Each pass is scaled
    # by the calibration loop timed around it, so wall_s is the median pass
    # at the reference host speed; the raw times are printed alongside.
    wall_s = median(o.wall_s / o.slowdown for o in untraced)
    if trace:
        values = layers.summarize(layer_passes)
        values["obs.trace_overhead"] = (
            median(o.wall_s / o.slowdown for o in traced) / wall_s
        )
        units = layers.PER_LAYER
        out_dir = ROOT / ".appbench"
        out_dir.mkdir(exist_ok=True)
        recorder.export(out_dir / f"spans-{workload_name}-seed{seed}.jsonl")
    else:
        values = {
            "setup_s": median(setup_seconds),
            "wall_s": wall_s,
            "virtual_s": median(o.virtual_s for o in untraced),
            "choice_regret": median(o.choice_regret for o in untraced),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            ),
        }
        units = END_TO_END
    # The oracle runs last, so neither set-up time nor peak memory see it.
    tally.settle(workload.reference())
    return {
        "passes": len(untraced),
        "raw_wall_s": sorted(o.wall_s for o in untraced),
        "slowdown": median(o.slowdown for o in untraced),
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units
        },
        "untraced": untraced,
        "layer_passes": layer_passes,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    raw = report["raw_wall_s"]
    print(f"{report['passes']} untraced passes; unscaled pass wall: fastest "
          f"{raw[0]:.6g} s, median {median(raw):.6g} s; host slowdown "
          f"{report['slowdown']:.3g}x")
    for name, metric in report["metrics"].items():
        print(f"{name:28} {metric['value']:>16.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                key: report[key]
                for key in ("correct", "attempted", "failed", "metrics")
            }
        )
    )
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
