"""Layers of g2real as the traced run sees them, and the per-layer metrics.

Coarse layers get spans around their public functions.  ``fields`` and
``linalg`` are called far too often to span: a separate counting pass counts
their calls, and their per-call costs come from timing the same public
functions on the workload's own fields and matrices.
"""

import importlib
import inspect
import random
import statistics
import time
from collections import Counter, defaultdict
from fractions import Fraction

from spans import CallCounter, Rebinder, Tracer, public_functions, public_methods, self_times


def _oracle_measure(args, kwargs, result):
    return {"candidates": sum(result["checked"].values())}


def _sweep_measure(args, kwargs, result):
    from g2real import sweeps

    bound = inspect.signature(sweeps.su_coset_sweep).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    stop = a["stop"] if a["stop"] is not None else a["L"].order ** 3
    return {"candidates": stop - a["start"], "hits": result[0]}


# span name, module, public functions (None: every public function it defines)
SPAN_LAYERS = (
    ("automorphisms.certify", "automorphisms", ("certify_automorphism",)),
    ("automorphisms.embed", "automorphisms", ("sl3_embed", "su_embed")),
    ("automorphisms.frame", "automorphisms",
     ("split_frame_from_idempotent", "quadratic_subfield_frame")),
    ("reality.classify", "reality", ("classify",)),
    ("reality.decide", "reality", ("reality_sl3", "reality_su")),
    ("reality.lift", "reality", ("two_involution_witness", "conjugator_witness")),
    ("reality.oracle", "reality", ("brute_force_reality_oracle",)),
    ("sweeps.sweep", "sweeps", ("su_coset_sweep",)),
    ("composition.build", "composition",
     ("base_algebra", "zorn_algebra", "cayley_dickson_double", "pfister_octonion",
      "quaternion_from_quadratic", "hermitian_space", "octonion_from_hermitian")),
    ("tori.build", "tori", None),
)
MEASURES = {"reality.oracle": _oracle_measure, "sweeps.sweep": _sweep_measure}

# per-layer metric -> (end-to-end metrics it should move, workloads it is measured on)
LAYER_MAP = {
    "automorphisms.certify.*": ("elements_per_s, element_ms_p50, setup_s",
                                "lift; census and sweep: no change"),
    "automorphisms.embed.self_s": ("elements_per_s", "lift"),
    "automorphisms.frame.self_s": ("element_ms_p50", "lift"),
    "reality.classify.self_s": ("element_ms_p50", "lift"),
    "reality.decide.self_s": ("elements_per_s", "lift, census"),
    "reality.lift.self_s": ("elements_per_s", "lift"),
    "reality.oracle.*": ("elements_per_s, run_s", "census; lift and sweep: no change"),
    "sweeps.sweep.*": ("elements_per_s, run_s, peak_rss_mb",
                       "sweep; lift and census: no change"),
    "fields.*": ("elements_per_s", "census, plus the SU and Q parts of lift"),
    "linalg.*": ("elements_per_s (3x3 work), element_ms_p50 (8x8 work)", "census, lift"),
    "composition.build.self_s, tori.build.self_s": ("setup_s", "all; tori only on sweep"),
}

# counts that two passes with one seed must reproduce exactly
EXACT_COUNTS = (
    "automorphisms.certify.calls",
    "reality.oracle.candidates",
    "sweeps.sweep.hits",
    "fields.ops",
    "linalg.calls",
)


def _module(name):
    return importlib.import_module("g2real." + name)


def instrument(rebinder, tracer, counter=None):
    """Install spans on every layer in SPAN_LAYERS and, with a counter, call
    counts on the public functions and field methods of fields and linalg."""
    for layer, modname, names in SPAN_LAYERS:
        mod = _module(modname)
        fns = public_functions(mod) if names is None else [getattr(mod, n) for n in names]
        for fn in fns:
            rebinder.function(fn, tracer.wrap(layer, fn, MEASURES.get(layer)))
    if counter is None:
        return
    for key in ("fields", "linalg"):
        for fn in public_functions(_module(key)):
            rebinder.function(fn, counter.wrap(key, fn))
    fields = _module("fields")
    for cls in vars(fields).values():
        if isinstance(cls, type) and cls.__module__ == fields.__name__:
            for name in public_methods(cls):
                rebinder.method(cls, name, counter.wrap("fields", vars(cls)[name]))


def traced_pass(prepare, seed, run_round, count=False):
    """Set up and run one round with spans (and counters), restoring every
    binding afterwards.  Returns (round, spans, call counts)."""
    tracer = Tracer()
    counter = CallCounter() if count else None
    with Rebinder() as rebinder:
        instrument(rebinder, tracer, counter)
        prepared = prepare(seed)
        rnd = run_round(prepared, tracer)
    return rnd, tracer.spans, counter.counts if counter else Counter()


def exact_counts(spans, counts):
    """The EXACT_COUNTS of one pass."""
    m = span_metrics(spans)
    out = {name: m[name] for name in EXACT_COUNTS[:3]}
    out["fields.ops"] = counts["fields"]
    out["linalg.calls"] = counts["linalg"]
    return out


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def span_metrics(spans):
    """Self times, calls and rates of the spanned layers."""
    own = defaultdict(float)
    for span, s in zip(spans, self_times(spans)):
        own[span.name] += s
    certify_ms = [1000 * (s.end - s.start) for s in spans if s.name == "automorphisms.certify"]
    oracle = [s for s in spans if s.name == "reality.oracle"]
    out = {
        "automorphisms.certify.calls": len(certify_ms),
        "automorphisms.certify.self_s": own["automorphisms.certify"],
        "automorphisms.certify.ms_p50": statistics.median(certify_ms) if certify_ms else 0.0,
        "reality.oracle.candidates": sum(s.info.get("candidates", 0) for s in oracle),
        "sweeps.sweep.hits": sum(s.info.get("hits", 0) for s in spans),
    }
    for layer in ("automorphisms.embed", "automorphisms.frame", "reality.classify",
                  "reality.decide", "reality.lift", "reality.oracle",
                  "composition.build", "tori.build"):
        out[f"{layer}.self_s"] = own[layer]
    out["reality.oracle.cand_per_s"] = _rate(
        out["reality.oracle.candidates"], own["reality.oracle"]
    )
    for name in ("nonreal", "real"):
        mine = [s for s in spans if s.name == "sweeps.sweep"
                and str(s.element).startswith(name + "/")]
        out[f"sweeps.sweep.{name}.cand_per_s"] = _rate(
            sum(s.info.get("candidates", 0) for s in mine), sum(s.end - s.start for s in mine)
        )
    return out


def oracle_rates(spans):
    """Oracle candidates per second by element family (the element id up to
    its first '/'), for comparing split and field-case enumeration."""
    totals = defaultdict(lambda: [0, 0.0])
    for s in spans:
        if s.name == "reality.oracle":
            family = totals[str(s.element).split("/")[0]]
            family[0] += s.info.get("candidates", 0)
            family[1] += s.end - s.start
    return {name: _rate(count, seconds) for name, (count, seconds) in totals.items()}


def _per_call(fn, argsets, repeats=5):
    """Median over repeats of the mean seconds per call of fn over argsets."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for args in argsets:
            fn(*args)
        times.append((time.perf_counter() - start) / len(argsets))
    return statistics.median(times)


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0


def call_costs(samples, seed):
    """Per-call cost of field multiplication and of det3 / 8x8 mat_mul, on the
    fields and matrices of the workload."""
    from g2real import linalg

    rng = random.Random(f"costs/{seed}")
    out = {}
    for kind in ("prime", "L"):
        out[f"fields.{kind}.mul_ns"] = 1e9 * _median_or_zero([
            _per_call(F.mul, [(F.random(rng), F.random(rng)) for _ in range(5000)])
            for F in samples[kind]
        ])
    out["fields.Q.mul_ns"] = 1e9 * _median_or_zero([
        _per_call(F.mul, [
            (Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
             Fraction(rng.randint(-99, 99), rng.randint(1, 99)))
            for _ in range(5000)
        ])
        for F in samples["Q"]
    ])
    out["linalg.det3_us"] = 1e6 * _per_call(linalg.det3, samples["mat3"])
    out["linalg.mat_mul8_us"] = 1e6 * _per_call(
        linalg.mat_mul, [(F, M, M) for F, M in samples["mat8"]]
    )
    return out
