import pytest

from benchmarks.e2e.metrics import layer_values
from benchmarks.e2e.spans import Span, Tracer, call_counts, self_times


def test_self_time_subtracts_children():
    spans = [
        Span("root", 1, 0, 1, 0.0, 10.0),
        Span("a", 2, 1, 1, 1.0, 4.0),
        Span("b", 3, 1, 1, 5.0, 9.0),
        Span("leaf", 4, 3, 1, 6.0, 7.0),
    ]
    assert self_times(spans) == pytest.approx({"root": 3.0, "a": 3.0, "b": 3.0, "leaf": 1.0})


def test_self_time_merges_overlapping_children():
    # Children from two threads may overlap; covered time counts once.
    spans = [
        Span("root", 1, 0, 1, 0.0, 10.0),
        Span("x", 2, 1, 1, 2.0, 6.0),
        Span("x", 3, 1, 1, 4.0, 8.0),
        Span("x", 4, 1, 1, 9.0, 12.0),
    ]
    selfs = self_times(spans)
    assert selfs["root"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert selfs["x"] == pytest.approx(4.0 + 4.0 + 3.0)


def test_same_name_spans_accumulate_and_count():
    spans = [Span("dsp", i, 0, i, float(i), i + 0.5) for i in range(1, 4)]
    assert self_times(spans) == pytest.approx({"dsp": 1.5})
    assert call_counts(spans) == {"dsp": 3}


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_wrap_records_parent_trace_and_timing():
    tracer = Tracer(clock=FakeClock())

    def inner():
        return "x"

    traced_inner = tracer.wrap("inner", inner)
    traced_root = tracer.wrap("root", lambda: traced_inner() + "y")
    traced_new_trace = tracer.wrap("scan", lambda: traced_inner(), root=True)
    tracer.active = True
    assert traced_root() == "xy"
    traced_new_trace()
    tracer.active = False
    traced_root()  # inactive: recorded nothing
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    root, = by_name["root"]
    scan, = by_name["scan"]
    first_inner, second_inner = by_name["inner"]
    assert root.parent_id == 0 and root.trace_id == root.span_id
    assert first_inner.parent_id == root.span_id and first_inner.trace_id == root.trace_id
    assert scan.trace_id == scan.span_id != root.trace_id
    assert second_inner.trace_id == scan.trace_id
    assert root.start < first_inner.start < first_inner.end < root.end
    assert len(tracer.spans) == 4


def test_wrap_closes_span_when_the_call_raises():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise RuntimeError("x")

    traced = tracer.wrap("root", boom)
    tracer.active = True
    with pytest.raises(RuntimeError):
        traced()
    assert [s.name for s in tracer.spans] == ["root"]
    assert tracer._stack() == []


def test_layer_values_cover_busy_time_and_reject_unknown_spans():
    spans = [
        Span("bench.harness", 1, 0, 1, 0.0, 10.0),
        Span("dsp", 2, 1, 1, 1.0, 3.0),
        Span("hpc.pipeline", 3, 1, 1, 3.0, 4.0),
    ]
    values = layer_values(spans, {"dc.reports": 5}, busy_s=10.0)
    assert values["dsp.self_s"] == pytest.approx(2.0)
    assert values["dsp.calls"] == 1
    assert values["bench.harness.self_s"] == pytest.approx(7.0)
    assert values["bench.self_time_coverage"] == pytest.approx(1.0)
    assert values["dc.reports"] == 5
    assert values["gateway.health.self_s"] == 0.0
    with pytest.raises(ValueError):
        layer_values([Span("nope", 1, 0, 1, 0.0, 1.0)], {}, busy_s=1.0)
