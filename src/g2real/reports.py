"""Run reports: a JSON schema, validation, rendering, and witness re-checks.

REPORT_SCHEMA is the one source of the report format: no copy of it is kept
on disk, and the README shows the command that prints it.  Reports are
deterministic for a fixed scenario, parameters and seed; the only
non-reproducible data (timestamp, elapsed time) lives under "meta", which
comparisons exclude.  verify_witnesses re-checks each matrix witness with
reality.check_witness, the check every real verdict passed when it was made.
"""

import json
from datetime import datetime, timezone

import jsonschema

from . import linalg
from .fields import QuadraticEtale, ground_field

SCHEMA_VERSION = 1

# witness matrices are rows of field elements in their text form
_TEXT_MATRIX = {"type": "array", "items": {"type": "array", "items": {"type": "string"}}}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "g2real run report",
    "type": "object",
    "required": ["schema_version", "scenario", "params", "seed", "verdicts", "meta"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "scenario": {"type": "string"},
        "params": {"type": "object"},
        "seed": {"type": ["integer", "null"]},
        "verdicts": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "status"],
                "properties": {
                    "name": {"type": "string"},
                    "status": {
                        "enum": ["pass", "fail", "real", "not_real", "unknown"]
                    },
                    "detail": {},
                },
                "additionalProperties": True,
            },
        },
        "witnesses": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    **{name: _TEXT_MATRIX for name in ("A", "S1", "S2", "A1", "A2", "B")},
                    "H": {"type": "array", "items": {"type": "string"}},
                    "c": {"type": "integer"},
                    **{name: {"type": "string"} for name in ("field", "omega", "b")},
                },
            },
        },
        "obstruction": {"type": ["object", "null"]},
        "oracle_agreement": {"type": ["boolean", "null"]},
        "meta": {
            "type": "object",
            "properties": {
                "timestamp": {"type": "string"},
                "elapsed_s": {"type": "number"},
                "version": {"type": "string"},
            },
        },
    },
}


def new_report(scenario, params, seed):
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario,
        "params": dict(params),
        "seed": seed,
        "verdicts": [],
        "witnesses": [],
        "obstruction": None,
        "oracle_agreement": None,
        "meta": {},
    }


def finalize(report, elapsed):
    from . import __version__

    report["meta"] = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "elapsed_s": round(elapsed, 6),
        "version": __version__,
    }
    validate_report(report)
    return report


def validate_report(report):
    jsonschema.validate(report, REPORT_SCHEMA)


def dump_report(report, path=None):
    text = json.dumps(report, indent=2, sort_keys=True)
    if path:
        import os
        import tempfile

        d = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        with open(fd, "w") as fh:
            fh.write(text + "\n")
        import shutil

        shutil.move(tmp, path)
    return text


def comparable_body(report):
    """The report without its meta block (the only nondeterministic part)."""
    out = {k: v for k, v in report.items() if k != "meta"}
    return json.dumps(out, indent=2, sort_keys=True)


def render(report):
    lines = []
    lines.append(f"scenario: {report['scenario']}")
    params = " ".join(f"{k}={v}" for k, v in sorted(report["params"].items()))
    lines.append(f"params:   {params}")
    lines.append(f"seed:     {report['seed']}")
    width = max((len(v["name"]) for v in report["verdicts"]), default=4)
    lines.append("-" * (width + 12))
    unknowns = 0
    for v in report["verdicts"]:
        status = v["status"]
        if status == "unknown":
            unknowns += 1
        detail = v.get("detail")
        suffix = f"  {detail}" if detail not in (None, "") else ""
        lines.append(f"{v['name']:<{width}}  {status}{suffix}")
    if report.get("obstruction"):
        lines.append(f"obstruction: {report['obstruction']}")
    if report.get("oracle_agreement") is not None:
        lines.append(f"oracle agreement: {report['oracle_agreement']}")
    if unknowns:
        lines.append(
            f"note: {unknowns} verdict(s) unknown (budget exhausted); rerun with a "
            "larger --budget"
        )
    meta = report.get("meta", {})
    if meta:
        lines.append(f"elapsed: {meta.get('elapsed_s')} s")
    return "\n".join(lines)


# -- witness re-verification -----------------------------------------------------

def _parse_mat(F, rows):
    return linalg.mat([[F.from_text(x) for x in row] for row in rows])


class VerificationError(Exception):
    """A report witness failed its exact re-check."""


# the matrices each kind of matrix witness carries beside A
_WITNESS_MATRICES = {
    "symmetric_pair": ("S1", "S2"),
    "unitary_pair": ("A1", "A2"),
    "conjugator_matrix": ("B",),
}


def verify_witnesses(report):
    """Re-verify every witness in a report; returns the number verified.
    Raises VerificationError naming the index and kind of the first witness
    that fails, and the identity it fails.  A matrix witness with "c" and "H"
    lives on a quadratic-field frame.  A witness of another kind is left
    unverified and not counted."""
    from .reality import check_witness

    checked = 0
    for i, w in enumerate(report.get("witnesses", [])):
        kind = w.get("kind")

        def require(ok, what):
            if not ok:
                raise VerificationError(f"witness {i} ({kind}) fails: {what}")

        try:
            if kind in _WITNESS_MATRICES:
                K = k = ground_field(w["field"])
                H = None
                if "c" in w:
                    K = QuadraticEtale(k, w["c"])
                    H = tuple(k.from_text(x) for x in w["H"])
                witness = {"type": kind, "coset": w.get("coset")}
                witness.update((name, _parse_mat(K, w[name])) for name in _WITNESS_MATRICES[kind])
                check_witness(K, _parse_mat(K, w["A"]), witness, H)
                checked += 1
            elif kind == "not_real_instance":
                _verify_not_real_instance(report["params"].get("kind"), w, require)
                checked += 1
        except (AssertionError, LookupError, ValueError, ZeroDivisionError) as exc:
            # failed or malformed; a singular matrix divides by zero
            require(False, repr(exc) if isinstance(exc, LookupError) else exc)
    return checked


def _verify_not_real_instance(family, w, require):
    """Rebuild the construction of the report's kind, match the instance's
    omega, b and B against it, and let the brute-force oracle rule out every
    conjugator.  Where the oracle runs out of budget (su from q = 23 on,
    whose coset has (q^2)^3 candidates, and sl3 past q = 464), the decision
    (reality_sl3 or reality_su) re-runs on the rebuilt B and must give
    not_real: its determinant-class test is exact and enumerates no coset."""
    from . import reality

    build = {"sl3": reality.build_counterexample_sl3, "su": reality.build_counterexample_su}
    require(family in build, f"counterexample kind {family!r} is sl3 or su")
    ce = build[family](int(w["field"]))
    K = ce["field"] if family == "sl3" else ce["L"]
    for key in ("omega", "b"):
        require(K.eq(K.from_text(w[key]), ce[key]), f"{key} is the construction's")
    require(linalg.mat_eq(K, _parse_mat(K, w["B"]), ce["B"]), "B is the construction's")
    verdict = reality.brute_force_reality_oracle(ce["t"], ce["frame"])["verdict"]
    require(verdict != "real", "oracle verdict not_real, got real")
    if verdict == "unknown":
        if family == "sl3":
            decided = reality.reality_sl3(K, ce["B"])
        else:
            decided = reality.reality_su(K, ce["B"], ce["frame"].H)
        require(decided.verdict == "not_real", "determinant class obstructs both cosets")


def mat_text(F, m):
    return [[F.to_text(x) for x in row] for row in m]
