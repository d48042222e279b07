"""Tests of the benchmark's own rules: the tail, per-op medians, the
output checks and span self times.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import harness  # noqa: E402


# -- tail rule ------------------------------------------------------------

def test_under_forty_samples_reports_the_median_alone():
    samples = list(range(1, 40))
    assert harness.tail(samples) == (50.0, statistics.median(samples))


@pytest.mark.parametrize("n, pct", [(40, 75.0), (99, 75.0), (100, 90.0),
                                    (199, 90.0), (200, 95.0), (999, 95.0),
                                    (1000, 95.0), (10000, 95.0)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, pct):
    got, _value = harness.tail([float(i) for i in range(n)])
    assert got == pct
    assert harness.samples_beyond(n, got) >= harness.TAIL_BEYOND
    higher = [p for p in harness.TAIL_LADDER if p > got]
    assert all(harness.samples_beyond(n, p) < harness.TAIL_BEYOND
               for p in higher)


def test_tail_value_interpolates_the_sorted_samples():
    samples = [float(i) for i in range(101)]       # 0..100, shuffled below
    samples = samples[50:] + samples[:50]
    assert harness.tail(samples) == (90.0, 90.0)


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        harness.tail([])


# -- per-op medians -------------------------------------------------------

def test_per_op_medians_take_each_ops_median_across_passes():
    samples = [("a", 1.0), ("b", 10.0), ("a", 3.0), ("b", 30.0),
               ("a", 100.0), ("b", 20.0)]
    medians = harness.per_op_medians(samples)
    assert list(medians) == ["a", "b"]
    assert medians == {"a": 3.0, "b": 20.0}


def test_one_slow_pass_moves_no_total():
    steady = [("a", 1.0), ("b", 2.0)] * 3
    hiccup = steady + [("a", 50.0), ("b", 60.0)]
    assert (sum(harness.per_op_medians(steady).values())
            == pytest.approx(3.0))
    assert (sum(harness.per_op_medians(hiccup).values())
            == pytest.approx(3.0))


# -- output checks --------------------------------------------------------

def test_outputs_compare_as_signed_words():
    assert harness.outputs_match([(1 << 64) - 1, 5], [-1, 5])
    assert not harness.outputs_match([5, 6], [5, 7])
    assert not harness.outputs_match([5], [5, 6])


def test_cell_check_fails_on_one_output_or_memory_word():
    memory = {0: 1, 8: 2, 16: (1 << 64) - 3}
    digest = harness.memory_digest(memory)
    assert harness.check_cell([1, 2], memory, [1, 2], digest)
    assert not harness.check_cell([1, 3], memory, [1, 2], digest)
    perturbed = dict(memory)
    perturbed[8] = 3
    assert not harness.check_cell([1, 2], perturbed, [1, 2], digest)
    extra = dict(memory)
    extra[24] = 0
    assert not harness.check_cell([1, 2], extra, [1, 2], digest)


def test_served_check_fails_on_one_output_or_the_key():
    payload = {"outputs": [4, 5, 6]}
    assert harness.check_served(payload, "k1", [4, 5, 6], "k1")
    assert not harness.check_served({"outputs": [4, 5, 7]}, "k1",
                                    [4, 5, 6], "k1")
    assert not harness.check_served(payload, "k1", [4, 5, 6], "k2")
    assert not harness.check_served({}, "k1", [4, 5, 6], "k1")


def test_checks_hold_on_a_real_simulation_and_catch_perturbations():
    from repro import api
    from repro.sim import SimConfig
    from repro.workloads import get_workload

    inst = get_workload("matching").instance(scale=0, seed=3)
    program = api.transform(api.compile_c(inst.source))
    result = api.simulate(program, SimConfig(n_cores=4)).result
    digest = harness.memory_digest(result.final_memory)
    assert harness.check_cell(result.outputs, result.final_memory,
                              inst.expected_output, digest)
    outputs = list(result.outputs)
    outputs[-1] += 1
    assert not harness.check_cell(outputs, result.final_memory,
                                  inst.expected_output, digest)
    memory = dict(result.final_memory)
    addr = min(memory)
    memory[addr] += 1
    assert not harness.check_cell(result.outputs, memory,
                                  inst.expected_output, digest)


# -- spans ----------------------------------------------------------------

def test_self_time_subtracts_children():
    tracer = harness.Tracer(True)
    tracer.spans = [["op", 0.0, 10.0, -1, "x"],
                    ["serve.submit", 1.0, 3.0, 0, "x"],
                    ["serve.fetch", 4.0, 5.0, 0, "x"],
                    ["runner.key", 6.0, 9.0, 0, "x"],
                    ["runner.inner", 7.0, 8.0, 3, "x"]]
    times = tracer.self_times()
    assert times["op"] == pytest.approx(4.0)
    assert times["serve.submit"] == pytest.approx(2.0)
    assert times["runner.key"] == pytest.approx(2.0)
    assert times["runner.inner"] == pytest.approx(1.0)
    assert harness.layer_of("serve.submit") == "serve"
    assert harness.layer_of("op") == "bench"


def test_spans_nest_and_carry_the_op_id():
    tracer = harness.Tracer(True)
    tracer.op = "warm/bfs/1/0"
    with tracer.span("op"):
        with tracer.span("serve.submit"):
            pass
    assert [s[0] for s in tracer.spans] == ["op", "serve.submit"]
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1
    assert all(s[4] == "warm/bfs/1/0" for s in tracer.spans)
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_disabled_tracer_records_nothing():
    tracer = harness.Tracer(False)
    with tracer.span("op"):
        pass
    assert tracer.spans == []
