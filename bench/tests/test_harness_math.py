"""Checks of the benchmark's own arithmetic. Run: python3 -m pytest -q bench/tests"""

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


@pytest.mark.parametrize(
    "count, expected",
    [(9, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9),
     (99_999, 99.9), (100_000, 99.99)],
)
def test_tail_percentile_keeps_ten_samples_beyond_it(count, expected):
    assert stats.tail_percentile(count) == expected


def test_summarize_reports_count_median_and_supported_tail():
    values = list(range(1, 101))
    s = stats.summarize(values)
    assert s["n"] == 100 and s["median"] == 50.5
    assert s["tail_percentile"] == 90.0 and s["tail"] == pytest.approx(90.1)
    assert "tail" not in stats.summarize(values[:50])


def test_quartile_spread_uses_statistics_quantiles():
    values = list(range(1, 11))
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / 5.5)
    assert stats.quartile_spread([2.0] * 10) == 0.0


def test_ok_share_is_one_minus_failed_share():
    assert stats.ok_share(3, 12) == 0.75
    assert stats.ok_share(0, 27) == 1.0
    assert stats.ratio(0, 0) == 0.0


def test_cost_limit_ratio_is_one_while_limits_hold():
    assert stats.cost_limit_ratio([3.0], [5.0]) == 1.0
    assert stats.cost_limit_ratio([6.0, 1.0], [5.0, 2.0]) == pytest.approx(1.2)


def test_self_time_is_span_minus_direct_children():
    # train [0, 10] holds child [1, 3], which holds grandchild [1.5, 2.5],
    # and child [4, 5]: self time 10 - 2 - 1 = 7; the grandchild is not
    # subtracted twice.
    tracer = spans.Tracer(clock=FakeClock([0.0, 1.0, 1.5, 2.5, 3.0, 4.0, 5.0, 10.0]))
    tracer.enter("train", keep_self=True)
    tracer.enter("child", keep_self=True)
    tracer.enter("grandchild")
    tracer.exit()
    tracer.exit()
    tracer.enter("child", keep_self=True)
    tracer.exit()
    tracer.exit()
    assert list(tracer.durations["train"]) == [10.0]
    assert list(tracer.self_times["train"]) == [7.0]
    assert list(tracer.self_times["child"]) == [1.0, 1.0]
    assert "grandchild" not in tracer.self_times
    assert tracer.counts["child"] == 2


def test_dump_and_load_round_trip(tmp_path):
    tracer = spans.Tracer(clock=FakeClock([0.0, 0.25, 1.0]))
    tracer.mark_entry()
    tracer.enter("a")
    tracer.exit()
    tracer.values["v"].append(3)
    tracer.dump(tmp_path / "r.json")
    doc = spans.load(tmp_path / "r.json")
    assert doc["first_entry"] == 0.0
    assert list(doc["durations"]["a"]) == [0.75]
    assert doc["counts"] == {"a": 1} and doc["values"] == {"v": [3]}


def _traced_rep(records):
    finished = [run.Finished(None, 0, "", "", 1.0, None, r) for r in records]
    return run.Rep(True, finished, 1.0, None)


def test_clip_ratio_counts_clipped_calls_over_calls():
    tracer = spans.Tracer()
    update = tracer.wrap("trainer.actor_update", lambda clipped: clipped,
                         after=probe._count_clipped)
    for clipped in (True, False, False, True, False):
        update(clipped)
    record = {"counts": dict(tracer.counts), "durations": {}, "self_times": {}, "values": {}}
    layers = run.LayerTimes([_traced_rep([record])], [], {})
    assert layers.metric(("share", "trainer.actor_update.clipped", "trainer.actor_update")) == 0.4


def test_calls_take_the_busiest_command_of_each_repetition():
    def record(n):
        return {"counts": {"dp_oracle.greedy_response": n}, "durations": {}, "self_times": {},
                "values": {}}

    reps = [_traced_rep([record(101), record(10_201), record(0)]) for _ in range(3)]
    layers = run.LayerTimes(reps, [], {})
    assert layers.calls("dp_oracle.greedy_response") == 10_201
    assert layers.calls("never.called") == 0
