"""Tests of the benchmark's own arithmetic: python3 -m pytest perfbench"""

import types

import pytest

import spans
from stats import MAX_ERRORS, OpTally, nearest_rank, summarize, tail_percentile, wilson_interval


def fake_clock(*times):
    return iter(times).__next__


@pytest.mark.parametrize("n, p", [(11, 9), (20, 50), (33, 69), (40, 75), (100, 90), (1000, 99)])
def test_tail_percentile_values(n, p):
    assert tail_percentile(n) == p


def test_tail_percentile_leaves_ten_beyond_and_is_highest():
    for n in range(11, 400):
        p = tail_percentile(n)
        values = list(range(n))
        beyond = sum(v > nearest_rank(values, p) for v in values)
        assert beyond >= 10
        if p < 100:
            assert sum(v > nearest_rank(values, p + 1) for v in values) < 10


def test_tail_percentile_needs_more_than_ten_samples():
    assert tail_percentile(10) is None
    assert summarize([1.0] * 10)["tail"] is None


def test_summarize_reports_percentile_and_count():
    s = summarize([float(v) for v in range(40, 0, -1)])
    assert s == {"p50": 20.0, "tail": 30.0, "tail_percentile": 75, "samples": 40}
    assert summarize([3.0, 1.0, 2.0])["p50"] == 2.0


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    tr = spans.Tracer(clock=fake_clock(0, 1, 2, 3, 4, 5, 9, 10))
    with tr.span("root"):
        with tr.span("a"):
            with tr.span("a1"):
                pass
        with tr.span("b"):
            pass
    assert [s.name for s in tr.spans] == ["root", "a", "a1", "b"]
    assert spans.self_times(tr.spans) == [3, 2, 1, 4]
    assert spans.phases(tr.spans) == ["root"] * 4
    assert spans.ancestors_named(tr.spans, "a") == [False, False, True, False]
    prof = spans.profile(tr.spans)
    assert prof["root"] == {"count": 1, "total_s": 10, "self_s": 3}
    assert prof["a"]["self_s"] == 2


def test_profile_sums_repeated_names():
    # outer [0, 8] > call [1, 2];  outer > call [3, 7] > inner [4, 5]
    tr = spans.Tracer(clock=fake_clock(0, 1, 2, 3, 4, 5, 7, 8))
    with tr.span("outer"):
        with tr.span("call"):
            pass
        with tr.span("call"):
            with tr.span("inner"):
                pass
    prof = spans.profile(tr.spans)
    assert prof["call"] == {"count": 2, "total_s": 5, "self_s": 4}
    assert prof["outer"]["self_s"] == 3


def test_span_closed_out_of_order_is_an_error():
    tr = spans.Tracer(clock=fake_clock(0, 1, 2))
    a = tr.open("a")
    tr.open("b")
    with pytest.raises(RuntimeError):
        tr.close(a)


def test_install_wraps_restores_and_reports_missing():
    class Thing:
        def work(self, x):
            return x + 1

    mod = types.SimpleNamespace(helper=lambda: Thing().work(1))
    seen = []
    tr = spans.Tracer()
    missing, restore = spans.install(tr, [
        (mod, "helper", "helper", None),
        (Thing, "work", "work", lambda t, sp, res, a, k: seen.append((sp.name, res))),
        (Thing, "gone", "gone", None),
        (mod, "absent", "absent", None),
    ])
    assert missing == ["gone", "absent"]
    assert mod.helper() == 2
    assert [(s.name, s.parent) for s in tr.spans] == [("helper", None), ("work", 0)]
    assert seen == [("work", 2)]
    restore()
    assert mod.helper() == 2 and len(tr.spans) == 2


def test_wrapped_call_that_raises_still_closes_its_span():
    tr = spans.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap(boom, "boom")()
    assert tr.spans[0].end is not None and tr._stack == []


@pytest.mark.parametrize("k, n, lo, hi", [
    (0, 10, 0.0, 0.2775),
    (5, 10, 0.2366, 0.7634),
    (10, 10, 0.7225, 1.0),
    (15, 30, 0.3315, 0.6685),
])
def test_wilson_interval_reference_values(k, n, lo, hi):
    assert wilson_interval(k, n) == pytest.approx((lo, hi), abs=1e-4)


def test_wilson_interval_without_trials_is_uninformative():
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_op_tally_counts_raises_and_continues():
    tally = OpTally()

    def op(i):
        if i % 3 == 0:
            raise RuntimeError(f"op {i}")
        return i * 2

    results = [tally.run(op, i) for i in range(20)]
    assert tally.attempted == 20
    assert tally.failed == 7  # 0, 3, ..., 18
    assert results[1] == (True, 2) and results[3] == (False, None)
    assert len(tally.errors) == MAX_ERRORS == 5
    assert "op 0" in tally.errors[0] and "op 12" in tally.errors[-1]


def test_op_tally_lets_interrupts_through():
    tally = OpTally()

    def stop():
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        tally.run(stop)
    assert tally.attempted == 1 and tally.failed == 0


def test_benchmark_json_names_what_the_harness_reports():
    import json
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import harness

    bench = json.loads((root / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: unit for name, (unit, _) in harness.PER_LAYER.items()}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == harness.END_TO_END
    assert {w["name"] for w in bench["workloads"]} <= set(harness.WORKLOADS)
