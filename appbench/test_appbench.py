"""Self-tests of the application benchmark (not part of the tier-1 suite).

Run from the repository root with ``python3 -m pytest appbench -q``; the
full set takes a few minutes because every workload runs three times.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import layers
import run
from spans import Instrumentation, Probe, SpanRecorder, self_times
from workloads import CONFIG, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

#: per-layer metrics that count work (or divide such counts): they must
#: repeat exactly between two runs with the same seed.
DETERMINISTIC_LAYER_METRICS = [
    name
    for name, unit in layers.PER_LAYER
    if unit in ("count", "bytes", "virtual-s")
    or name in ("orm.cache_hit_ratio", "db.stmt_cache_hit_ratio",
                "exec.codegen_share", "router.routed_share")
]


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        CONFIG["workloads"][name]["why"] for name in WORKLOADS
    ]


class _Layers:
    def outer(self, n):
        return self.inner(n) + self.inner(n)

    def inner(self, n):
        return n if n <= 0 else self.inner(n - 1) + 1


def test_spans_nest_fold_recursion_and_are_removed():
    recorder = SpanRecorder()
    original = vars(_Layers)["inner"]
    probes = [Probe(_Layers, "outer", "a"), Probe(_Layers, "inner", "b", int)]
    root = recorder.open("app.pass")
    with Instrumentation(recorder, probes):
        assert _Layers().outer(3) == 6
    recorder.close(root)
    assert vars(_Layers)["inner"] is original
    names = [span[0] for span in recorder.spans]
    # The recursive inner calls fold into one span per outer call.
    assert names == ["app.pass", "a", "b", "b"]
    assert [span[5] for span in recorder.spans] == [None, None, 3, 3]
    selfs = self_times(recorder.spans, 0, len(recorder.spans))
    duration = recorder.spans[0][2] - recorder.spans[0][1]
    assert sum(selfs) == pytest.approx(duration, abs=1e-12)
    assert all(value >= 0 for value in selfs)


def _deterministic(report) -> list[tuple]:
    """Every value that must repeat exactly, pass by pass."""
    values = [
        (
            outcome.virtual_s,
            outcome.choice_regret,
            outcome.counters.get("round_trips", 0),
            outcome.counters.get("bytes_transferred", 0),
        )
        for outcome in report["untraced"]
    ]
    values += [
        tuple(p[name] for name in DETERMINISTIC_LAYER_METRICS)
        for p in report["layer_passes"]
    ]
    return values


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_repeats_and_another_seed_holds(name):
    seed = CONFIG["workloads"][name]["reference_seed"]
    first, second, other = (
        run.run(name, s, seconds=0, trace=True, setups=1, min_passes=2)
        for s in (seed, seed, seed + 1000)
    )
    for report in (first, second, other):
        assert report["correct"], report["failed"]
        assert report["failed"] == 0
        values = _deterministic(report)
        untraced = len(report["untraced"])
        # Every pass of a run agrees on the paper metrics, and every traced
        # pass on the layer counts.
        assert len(set(values[:untraced])) == 1
        assert len(set(values[untraced:])) == 1
    assert _deterministic(first) == _deterministic(second)
    assert first["metrics"]["obs.trace_overhead"]["value"] > 0
