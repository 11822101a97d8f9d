"""Tail-percentile rule, self time of nested spans, and restoring every
rebound g2real function after a traced pass."""

import math
import random

import pytest

import layers
import workloads
from spans import (
    CallCounter,
    Rebinder,
    Span,
    Tracer,
    g2real_modules,
    percentile,
    self_times,
    tail_percentile,
)


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in range(11, 500):
        p = tail_percentile(n)
        values = random.Random(n).sample(range(10 * n), n)
        v = percentile(values, p)
        assert sum(x > v for x in values) >= 10
        if p < 99:
            assert n - math.ceil((p + 1) * n / 100) < 10
    assert tail_percentile(109) == 90
    assert tail_percentile(122) == 91
    assert tail_percentile(1000) == 99


def test_tail_percentile_needs_eleven_samples():
    with pytest.raises(ValueError):
        tail_percentile(10)


def test_self_time_subtracts_nested_children():
    spans = [
        Span("root", 0.0, 10.0, None, "e"),
        Span("a", 1.0, 4.0, 0, "e"),
        Span("a.inner", 2.0, 3.0, 1, "e"),
        Span("b", 5.0, 9.0, 0, "e"),
        # children that overlap are covered once
        Span("other", 20.0, 30.0, None, "f"),
        Span("c", 21.0, 25.0, 4, "f"),
        Span("d", 24.0, 27.0, 4, "f"),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 4.0, 4.0, 3.0]


def test_tracer_links_parents_and_elements():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2, measure=lambda a, k, r: {"r": r})
    tracer.element = "el-1"
    assert outer(1) == 4
    outer_span, inner_span = tracer.spans
    assert (outer_span.name, outer_span.parent, outer_span.info) == ("outer", None, {"r": 4})
    assert (inner_span.name, inner_span.parent, inner_span.element) == ("inner", 0, "el-1")
    st = self_times(tracer.spans)
    assert st[0] == pytest.approx(
        (outer_span.end - outer_span.start) - (inner_span.end - inner_span.start)
    )


def test_call_counter_counts_and_reads_without_advancing():
    counter = CallCounter()
    f = counter.wrap("k", lambda: None)
    for _ in range(7):
        f()
    assert counter.counts["k"] == 7
    assert counter.counts["k"] == 7


def _bindings():
    from g2real import automorphisms, composition, fields, linalg, reality, sweeps, tori  # noqa: F401

    out = {(m.__name__, k): v for m in g2real_modules() for k, v in vars(m).items()}
    for cls in vars(fields).values():
        if isinstance(cls, type):
            out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


def _tiny_prepare(seed):
    """One lift element and one census element over F_7."""
    from g2real import automorphisms, composition, fields, reality

    k = fields.PrimeField(7)
    alg = composition.zorn_algebra(k)
    frame = automorphisms.zorn_split_frame(alg)
    A = automorphisms.random_sl3(k, random.Random(seed), avoid_eigenvalue_one=True,
                                 separable=True)
    t = automorphisms.sl3_embed(A, frame)
    items = [
        workloads.lift_item("lift", alg, t.matrix, 7, "real"),
        workloads.census_item("census", lambda: reality.reality_sl3(k, A), t, frame),
    ]
    return workloads.Prepared(items, lambda outs: [("x", o.error) for o in outs], {})


def _run_round(prepared, tracer):
    outs = []
    for item in prepared.items:
        tracer.element = item.ident
        outs.append(item.run())
    return outs


def test_traced_pass_restores_every_binding():
    before = _bindings()
    outs, spans, counts = layers.traced_pass(_tiny_prepare, 3, _run_round, count=True)
    assert [o.error for o in outs] == [None, None]
    names = {s.name for s in spans}
    assert {"automorphisms.certify", "reality.decide", "reality.oracle",
            "reality.lift", "composition.build"} <= names
    assert counts["fields"] > 0 and counts["linalg"] > 0
    after = _bindings()
    assert before.keys() == after.keys()
    assert [key for key in before if before[key] is not after[key]] == []


def test_rebinder_restores_after_an_error():
    from g2real import automorphisms, reality

    before = _bindings()
    original = automorphisms.certify_automorphism
    with pytest.raises(RuntimeError):
        with Rebinder() as rebinder:
            layers.instrument(rebinder, Tracer(), CallCounter())
            # the name is rebound where it is defined and where it is imported
            assert automorphisms.certify_automorphism is not original
            assert reality.certify_automorphism is automorphisms.certify_automorphism
            raise RuntimeError("stop")
    after = _bindings()
    assert [key for key in before if before[key] is not after[key]] == []


def test_two_counting_passes_give_identical_counts():
    passes = [layers.traced_pass(_tiny_prepare, 5, _run_round, count=True) for _ in range(2)]
    first, second = (layers.exact_counts(spans, counts) for _, spans, counts in passes)
    assert first == second
    assert first["automorphisms.certify.calls"] > 0
    assert first["reality.oracle.candidates"] > 0
