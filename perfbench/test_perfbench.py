"""Tests of the benchmark's own helpers and of its exact counts.

Run from the root of a checkout::

    python -m pytest -q perfbench

The exact-count tests run every workload's traced mode twice at one
seed (a few minutes in all).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


class TestPercentileRule:
    def test_p90_needs_a_hundred_samples(self):
        with pytest.raises(stats.TooFewSamples):
            stats.percentile(list(range(99)), 0.9)
        assert stats.percentile(list(range(100)), 0.9) == pytest.approx(89.1)

    def test_p50_needs_twenty_samples(self):
        with pytest.raises(stats.TooFewSamples):
            stats.percentile([1.0] * 19, 0.5)
        assert stats.percentile(list(range(20)), 0.5) == pytest.approx(9.5)

    def test_ten_samples_lie_beyond_the_accepted_percentile(self):
        for q in (0.5, 0.75, 0.9, 0.95):
            n = stats.min_samples(q)
            values = list(range(n))
            assert sum(v > stats.percentile(values, q) for v in values) >= 10

    def test_quartile_spread_matches_statistics_quantiles(self):
        median, q1, q3, spread = stats.quartile_spread([1, 2, 3, 4, 5, 6])
        assert (q1, median, q3) == (1.75, 3.5, 5.25)
        assert spread == pytest.approx(1.0)


class TestSelfTime:
    def test_overlapping_children_are_counted_once(self):
        spans = [("parent", 0.0, 10.0, -1),
                 ("a", 1.0, 4.0, 0), ("b", 3.0, 6.0, 0),
                 ("c", 8.0, 12.0, 0)]
        # Children cover [1, 6] and [8, 10] of the parent: 7 of 10.
        assert stats.self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 4.0])

    def test_nested_children_only_subtract_from_their_parent(self):
        spans = [("root", 0.0, 10.0, -1), ("mid", 2.0, 8.0, 0),
                 ("leaf", 3.0, 5.0, 1)]
        assert stats.self_times(spans) == pytest.approx([4.0, 4.0, 2.0])

    def test_tracer_layer_times_use_self_time(self):
        tracer = tracing.Tracer()
        tracer.spans = [["core.mc", 0.0, 10.0, -1, "run0"],
                        ["circuit.dc", 1.0, 5.0, 0, "run0"],
                        ["circuit.refresh", 2.0, 3.0, 1, "run0"],
                        ["variability.assign", 6.0, 7.0, 0, "run0"]]
        times = tracer.layer_times()
        assert times["core.mc.self_s"] == pytest.approx(5.0)
        assert times["circuit.dc.self_s"] == pytest.approx(3.0)
        assert times["circuit.refresh.self_s"] == pytest.approx(1.0)
        assert times["variability.assign.calls"] == 1

    def test_dup_fraction_counts_keys_already_in_flight(self):
        jobs = [("a", 0.0, 1.0), ("a", 0.5, 1.5), ("b", 0.6, 0.9),
                ("b", 1.0, 2.0), ("a", 2.0, 3.0)]
        assert tracing.dup_fraction(jobs) == pytest.approx(1 / 5)


class TestServeSequence:
    def test_same_seed_same_sequence(self):
        assert wl.serve_sequence(7) == wl.serve_sequence(7)
        assert wl.serve_sequence(7) != wl.serve_sequence(8)

    def test_composition(self):
        steps = wl.serve_sequence(3)
        kinds = [kind for kind, _a, _b in steps]
        assert {k: kinds.count(k) for k in wl.ROUND_STEPS} == wl.ROUND_STEPS
        assert kinds[0] == "cold"
        cold = 2 * (len(steps) - wl.ROUND_STEPS["hit"])
        hits = 2 * wl.ROUND_STEPS["hit"]
        assert cold >= stats.min_samples(0.9)
        assert hits >= stats.min_samples(0.9)

    def test_hits_repeat_earlier_specs_and_fresh_specs_are_new(self):
        sent = []
        for kind, a, b in wl.serve_sequence(5):
            if kind == "hit":
                assert a in sent and b in sent
                continue
            if kind == "dup":
                assert a == b
            else:
                assert a != b
            assert a not in sent and b not in sent
            sent += [a, b]


def test_program_seeds_follow_the_seed():
    assert wl.program_seeds("mc_offset", 4) == wl.program_seeds("mc_offset",
                                                                4)
    assert sorted(wl.program_seeds("mc_ring", 9)) == sorted(wl.SEED_POOL)


def test_import_seconds_sums_module_self_times():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:      1000 |       5000 | repro\n"
            "import time:      2000 |       2000 |   repro.cli\n"
            "import time:       500 |       9000 |     scipy.stats\n"
            "import time:       300 |        300 | numpy\n"
            "[mc] 32/256 samples\n")
    assert bench.import_seconds(text) == pytest.approx(
        {"import.repro_s": 0.003, "import.scipy_s": 0.0005})


def test_reference_covers_the_seed_pool():
    reference = wl.load_reference()
    for workload, spec in wl.CLI_WORKLOADS.items():
        for seed in wl.SEED_POOL:
            assert set(reference[workload][str(seed)]) == set(spec["checks"])
    assert reference["highsigma_sram"]["3"]["full solver calls"] == \
        "276 of 1024"


def _traced(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "2", "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, stdout=subprocess.PIPE, check=True, text=True,
        timeout=300)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], result
    return result["metrics"]


@pytest.mark.skipif(not (HERE.parent / "src" / "repro").is_dir(),
                    reason="needs the program's sources")
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_invariant_counts_repeat_exactly(workload):
    first, second = _traced(workload), _traced(workload)
    for name in bench.INVARIANT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["circuit.dc.calls"]["value"] > 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "perfbench" / "reference.json").write_bytes(
        (HERE / "reference.json").read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_offset",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60, env=dict(os.environ, PYTHONPATH=""))
    assert out.returncode != 0
    assert out.stdout == ""


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench.PER_LAYER
