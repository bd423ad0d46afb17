"""Tests of the benchmark itself, at a tiny scale.

Run with ``PYTHONPATH=src python -m pytest bench``.  They call the
benchmark's functions with the package already imported, so no set-up
repetition re-imports it under the other tests.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import nlp2dlp

BENCH = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("nlp2dlp_bench", BENCH / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench  # dataclasses look their module up there
_spec.loader.exec_module(bench)

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY = {
    "compile_bulk": lambda seed: bench.compile_bulk(nlp2dlp, seed, files=3,
                                                    rules=20),
    "compile_deep": lambda seed: bench.compile_deep(nlp2dlp, seed,
                                                    lengths=(20, 40),
                                                    probes=(40, 600)),
    "verify_corpus": lambda seed: bench.verify_corpus(nlp2dlp, seed,
                                                      programs=12, contexts=1),
    "oracle_ht": lambda seed: bench.oracle_ht(nlp2dlp, seed, atoms8=1,
                                              atoms9=0),
}


def _run(name, trace, seed=bench.DEFAULT_SEED):
    return bench.measure(nlp2dlp, TINY[name](seed), seed, 0.0, trace, 0.5)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_emits_every_metric(name):
    assert set(TINY) == set(bench.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} == set(bench.WORKLOADS)
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        record = _run(name, trace)
        assert record["correct"] and record["failed"] == 0
        assert set(record["metrics"]) == {m["name"] for m in SPEC[group]}
        if not trace:
            assert all(v > 0 for v in record["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_gives_same_counters(name):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = []
    for _ in range(2):
        record = _run(name, True, seed=3)
        counts.append((record["counters"],
                       {k: v for k, v in record["metrics"].items()
                        if units[k] in ("count", "KB", "conjuncts")}))
    assert counts[0] == counts[1]


def test_polarity_in_place_of_structural_is_counted_failed(monkeypatch):
    # every check of the structural translation now sees the polarity one
    monkeypatch.setattr(nlp2dlp.verify, "translate_structural",
                        nlp2dlp.translate_polarity_variant)
    record = _run("verify_corpus", False)
    assert record["failed"] > 0 and not record["correct"]


def test_pinned_counters_are_checked():
    workload = TINY["verify_corpus"](bench.DEFAULT_SEED)
    tally = bench.Tally()
    *_, counters = bench.run_pass(workload, tally)
    assert tally.failed == 0
    pins = json.loads((BENCH / "expected.json").read_text())["verify_corpus"]
    workload.sizes = pins["sizes"]
    counters["polarity_unfaithful"] += 1
    assert bench.check_pins(workload, bench.DEFAULT_SEED, counters, tally)
    assert tally.failed > 0


def test_times_are_scaled_by_the_reference_runs_around_them():
    probe = bench.SpeedProbe()
    probe.samples = [(t, 2e-3) for t in (0.0, 0.1, 0.2)] \
        + [(t, 4e-3) for t in (1.0, 1.1, 1.2, 1.3)]
    # the run inside the interval (1.1) and three on either side
    near = [2e-3, 2e-3, 4e-3, 4e-3, 4e-3, 4e-3]
    assert probe.scaled([0.5], [(1.05, 1.15)]) == pytest.approx(
        [0.5 * bench.REFERENCE_S / (sum(near) / len(near))])
