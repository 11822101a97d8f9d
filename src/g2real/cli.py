"""Command-line front end.

Subcommands: axioms, counterexample, cdk, companion, norms, report.
Exit codes: 0 all pass, 1 a theorem-level check failed or a solver invariant
broke (an implementation bug), 2 usage error, 3 a check left unknown because
a decision or the oracle returned verdict unknown (budget exhausted).
"""

import argparse
import random
import sys
import time

from . import linalg, reports
from .fields import (
    CubicAlgebra,
    FieldError,
    PrimeField,
    QuadraticEtale,
    _first_irreducible_cubic,
    cubic_is_irreducible,
    ground_field,
    norm_quotient_report,
)
from .reality import RealityError


class UsageError(Exception):
    pass


def _require_count(flag, value):
    """A negative count or seed is a bad flag, not a failed check."""
    if value < 0:
        raise UsageError(f"--{flag} must be at least 0, got {value}")


_CONFIG_KEYS = {
    "axioms": {"field", "samples", "seed", "json"},
    "counterexample": {"kind", "q", "budget", "exhaustive", "json"},
    "cdk": {"q", "trials", "seed", "json"},
    "companion": {"q", "trials", "seed", "json"},
    "norms": {"q", "json"},
}


def config_to_args(scenario, text):
    """Parse plain-text key=value lines into argv fragments; unknown keys are
    rejected.  Flags given on the command line take precedence by appearing
    later in the argv."""
    known = _CONFIG_KEYS.get(scenario)
    if known is None:
        raise UsageError(f"scenario {scenario!r} takes no config file")
    argv = []
    positional = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
        if key == "kind":
            positional.append(value)
        elif key == "exhaustive":
            if value.lower() in ("1", "true", "yes"):
                argv.append("--exhaustive")
        else:
            argv.extend([f"--{key}", value])
    return positional + argv


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        argv = _expand_config(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, ok = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RealityError as exc:  # a solver invariant broke: an implementation bug
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if report is not None:
        reports.dump_report(report, getattr(args, "json", None))
        if getattr(args, "json", None):
            print(f"report written to {args.json}")
        print(reports.render(report))
        unknowns = any(v["status"] == "unknown" for v in report["verdicts"])
        if not ok:
            return 1
        if unknowns:
            return 3
    if ok is None:  # report --verify left a witness undecided
        return 3
    return 0 if ok else 1


def _expand_config(argv):
    """Replace `--config PATH` by the flags it encodes, keeping explicit
    command-line flags after them so they win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise UsageError("--config needs a path")
    path = argv[i + 1]
    scenario = argv[0] if argv else ""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from exc
    extra = config_to_args(scenario, text)
    rest = argv[1:i] + argv[i + 2 :]
    return [scenario] + extra + rest


def build_parser():
    p = argparse.ArgumentParser(
        prog="g2real",
        description="Exact octonion algebras and reality tests for their "
        "automorphism groups",
        epilog="Every scenario subcommand also accepts --config FILE with "
        "plain-text key=value lines; explicit flags win.",
    )
    sub = p.add_subparsers(required=True)

    ax = sub.add_parser("axioms", help="composition/minimal-equation/frame suites")
    ax.add_argument("--field", required=True, help="odd prime p or Q")
    ax.add_argument("--samples", type=int, default=100000)
    ax.add_argument("--seed", type=int, default=0)
    ax.add_argument("--json", default=None)
    ax.set_defaults(func=cmd_axioms)

    ce = sub.add_parser("counterexample", help="build and verify a non-real element")
    ce.add_argument("kind", choices=["sl3", "su"])
    ce.add_argument("--q", type=int, required=True)
    ce.add_argument("--budget", type=int, default=10**8)
    ce.add_argument("--exhaustive", action="store_true")
    ce.add_argument("--json", default=None)
    ce.set_defaults(func=cmd_counterexample)

    cd = sub.add_parser(
        "cdk", help="semisimple sampling: every element real with involutions"
    )
    cd.add_argument("--q", type=int, required=True)
    cd.add_argument("--trials", type=int, default=200)
    cd.add_argument("--seed", type=int, default=0)
    cd.add_argument("--json", default=None)
    cd.set_defaults(func=cmd_cdk)

    co = sub.add_parser("companion", help="self-dual cubic factorization suite")
    co.add_argument("--q", type=int, required=True)
    co.add_argument("--trials", type=int, default=100)
    co.add_argument("--seed", type=int, default=0)
    co.add_argument("--json", default=None)
    co.set_defaults(func=cmd_companion)

    no = sub.add_parser("norms", help="norm-quotient triviality by enumeration")
    no.add_argument("--q", type=int, required=True)
    no.add_argument("--json", default=None)
    no.set_defaults(func=cmd_norms)

    re = sub.add_parser("report", help="render (and optionally verify) a report")
    re.add_argument("--input", required=True)
    re.add_argument("--verify", action="store_true")
    re.set_defaults(func=cmd_report)
    return p


def _add(report, name, passed, detail=None):
    """Record one check; passed None (an undecided verdict) records status
    unknown, which is not a failure."""
    status = "unknown" if passed is None else "pass" if passed else "fail"
    report["verdicts"].append({"name": name, "status": status, "detail": detail})
    return passed is not False


def cmd_axioms(args):
    from .automorphisms import split_frame_from_idempotent
    from .composition import law_failures, zorn_algebra

    _require_count("samples", args.samples)
    _require_count("seed", args.seed)  # numpy's generator takes seeds >= 0
    try:
        spec = args.field if args.field == "Q" else int(args.field)
    except ValueError:
        raise UsageError(f"--field must be an odd prime or Q, got {args.field!r}") from None
    start = time.perf_counter()
    F = ground_field(spec)
    rep = reports.new_report(
        "axioms", {"field": args.field, "samples": args.samples}, args.seed
    )
    ok = True
    alg = zorn_algebra(F)
    fails = {}
    for law, n, seed in (("composition_law", args.samples, args.seed),
                         ("minimal_equation", min(args.samples, 10000), args.seed + 1),
                         ("alternative_laws", 200, args.seed + 3)):
        fails.update(law_failures(alg, n, seed, (law,)))
    ok &= _add(rep, "composition_law", fails["composition_law"] == 0,
               f"{fails['composition_law']} failures / {args.samples}")
    ok &= _add(rep, "minimal_equation", fails["minimal_equation"] == 0,
               f"{fails['minimal_equation']} failures")

    rng = random.Random(args.seed + 2)
    conj_ok = True
    for _ in range(200):
        x = alg.random(rng)
        if not alg.eq(alg.conj(alg.conj(x)), x):
            conj_ok = False
        prod = alg.mul(x, alg.conj(x))
        if not alg.eq(prod, alg.scale(alg.norm(x), alg.one)):
            conj_ok = False
    ok &= _add(rep, "conjugation", conj_ok)

    ok &= _add(rep, "alternative_laws", fails["alternative_laws"] == 0,
               f"{fails['alternative_laws']} failures")

    # the Peirce decomposition of e_7 completes to a split frame
    try:
        split_frame_from_idempotent(alg, alg.basis_vec(7))
        peirce = True
    except FieldError:
        peirce = False
    ok &= _add(rep, "peirce", peirce)

    reports.finalize(rep, time.perf_counter() - start)
    return rep, ok


def cmd_counterexample(args):
    from .reality import (
        _in_power_class,
        brute_force_reality_oracle,
        build_counterexample_sl3,
        build_counterexample_su,
        reality_sl3,
        reality_su,
        symmetric_decomposition,
    )

    _require_count("budget", args.budget)
    start = time.perf_counter()
    rep = reports.new_report(
        "counterexample",
        {"kind": args.kind, "q": args.q, "exhaustive": bool(args.exhaustive)},
        None,
    )
    ok = True
    try:
        if args.kind == "sl3":
            ce = build_counterexample_sl3(args.q)
        else:
            ce = build_counterexample_su(args.q)
    except RealityError as exc:
        raise UsageError(f"q = {args.q} is not admissible: {exc}") from exc

    if args.kind == "sl3":
        k = ce["field"]
        r = reality_sl3(k, ce["B"], args.budget)
        ok &= _add(rep, "verdict_not_real", _not_real(r.verdict), f"verdict={r.verdict}")
        rep["obstruction"] = r.obstruction
        # the triangular base matrix does decompose; the twisted one must not
        decA = symmetric_decomposition(k, ce["A"], args.budget)
        ok &= _add(rep, "base_matrix_decomposes", None if "unknown" in decA else decA["ok"])
        T = ((k.zero, k.zero, k.one), (k.zero, k.neg(k.one), k.zero), (k.one, k.zero, k.zero))
        lhs = linalg.mat_mul(k, T, ce["A"])
        rhs = linalg.mat_mul(k, linalg.transpose(ce["A"]), T)
        ok &= _add(rep, "antidiagonal_conjugates_to_transpose", linalg.mat_eq(k, lhs, rhs))
        orc = brute_force_reality_oracle(ce["t"], ce["frame"], args.budget, level="matrix")
        agree = _agreement(orc["verdict"], r.verdict)
        rep["oracle_agreement"] = agree
        ok &= _add(
            rep,
            "oracle_agreement",
            agree,
            f"{orc['checked']} candidates per coset checked",
        )
        rep["witnesses"].append(
            {
                "kind": "not_real_instance",
                "field": str(args.q),
                "omega": k.to_text(ce["omega"]),
                "b": k.to_text(ce["b"]),
                "B": reports.mat_text(k, ce["B"]),
            }
        )
    else:
        L = ce["L"]
        k = ce["field"]
        r = reality_su(L, ce["B"], ce["frame"].H, args.budget)
        ok &= _add(rep, "verdict_not_real", _not_real(r.verdict), f"verdict={r.verdict}")
        rep["obstruction"] = r.obstruction
        ok &= _add(
            rep,
            "b_squared_not_a_cube",
            not _in_power_class(L, L.mul(ce["b"], ce["b"]), 3),
        )
        if args.exhaustive:
            orc = brute_force_reality_oracle(ce["t"], ce["frame"], args.budget)
            rep["oracle_agreement"] = _agreement(orc["verdict"], r.verdict)
            found = {"not_real": "0 conjugators", "real": "a conjugator"}
            ok &= _add(
                rep,
                "exhaustive_sweep",
                _not_real(orc["verdict"]),
                f"{sum(orc['checked'].values())} candidates, "
                + found.get(orc["verdict"], "budget exhausted"),
            )
        rep["witnesses"].append(
            {
                "kind": "not_real_instance",
                "field": str(args.q),
                "omega": L.to_text(ce["omega"]),
                "b": L.to_text(ce["b"]),
                "B": reports.mat_text(L, ce["B"]),
            }
        )
    reports.finalize(rep, time.perf_counter() - start)
    return rep, ok


def _not_real(verdict):
    return None if verdict == "unknown" else verdict == "not_real"


def _agreement(oracle_verdict, verdict):
    """Whether the oracle and the decision agree; None when either is unknown."""
    if "unknown" in (oracle_verdict, verdict):
        return None
    return oracle_verdict == verdict


def cmd_cdk(args):
    from .automorphisms import quadratic_subfield_frame, random_sl3, random_su, su_embed, sl3_embed
    from .composition import hermitian_space, octonion_from_hermitian, zorn_algebra
    from .automorphisms import zorn_split_frame
    from .reality import reality_sl3, reality_su, two_involution_witness

    _require_count("trials", args.trials)
    start = time.perf_counter()
    q = args.q
    rep = reports.new_report("cdk", {"q": q, "trials": args.trials}, args.seed)
    ok = True
    k = PrimeField(q)
    rng = random.Random(args.seed)

    # SL(3, q) family on the Zorn frame
    alg = zorn_algebra(k)
    fr = zorn_split_frame(alg)
    passed = 0
    torus_types = {"indecomposable": 0, "decomposable": 0}
    for _ in range(args.trials):
        A = random_sl3(k, rng, avoid_eigenvalue_one=True, separable=True)
        chi = linalg.charpoly3(k, A)
        irr = cubic_is_irreducible(k, chi)
        torus_types["indecomposable" if irr else "decomposable"] += 1
        r = reality_sl3(k, A)
        if r.verdict != "real" or r.witness["type"] != "symmetric_pair":
            continue
        t = sl3_embed(A, fr)
        i1, i2 = two_involution_witness(t, fr, r)
        passed += 1
        if len(rep["witnesses"]) < 3:
            rep["witnesses"].append(
                {
                    "kind": "symmetric_pair",
                    "field": str(q),
                    "A": reports.mat_text(k, A),
                    "S1": reports.mat_text(k, r.witness["S1"]),
                    "S2": reports.mat_text(k, r.witness["S2"]),
                }
            )
    ok &= _add(
        rep,
        "sl3_family_real_with_involutions",
        passed == args.trials,
        f"{passed}/{args.trials}; torus types {torus_types}",
    )

    # SU(3, q^2/q) family on a hermitian-model frame
    c = k.nonsquare()
    L = QuadraticEtale(k, c)
    algu = octonion_from_hermitian(hermitian_space(L, (1, 1, 1)))
    fru = quadratic_subfield_frame(algu, algu.basis_vec(1))
    passed_u = 0
    torus_types_u = {"indecomposable": 0, "decomposable": 0}
    for _ in range(args.trials):
        A = random_su(L, fru.H, rng, separable=True)
        chi = linalg.charpoly3(L, A)
        irr = cubic_is_irreducible(L, chi)
        torus_types_u["indecomposable" if irr else "decomposable"] += 1
        r = reality_su(L, A, fru.H)
        if r.verdict != "real" or r.witness["type"] != "unitary_pair":
            continue
        t = su_embed(A, fru)
        i1, i2 = two_involution_witness(t, fru, r)
        passed_u += 1
        if len(rep["witnesses"]) < 6:
            rep["witnesses"].append(
                {
                    "kind": "unitary_pair",
                    "field": str(q),
                    "c": int(c),
                    "H": [k.to_text(h) for h in fru.H],
                    "A": reports.mat_text(L, A),
                    "A1": reports.mat_text(L, r.witness["A1"]),
                    "A2": reports.mat_text(L, r.witness["A2"]),
                }
            )
    ok &= _add(
        rep,
        "su_family_real_with_involutions",
        passed_u == args.trials,
        f"{passed_u}/{args.trials}; torus types {torus_types_u}",
    )
    reports.finalize(rep, time.perf_counter() - start)
    return rep, ok


def cmd_companion(args):
    from .reality import companion_factorization

    _require_count("trials", args.trials)
    start = time.perf_counter()
    q = args.q
    rep = reports.new_report("companion", {"q": q, "trials": args.trials}, args.seed)
    k = PrimeField(q)
    L = QuadraticEtale(k, k.nonsquare())
    rng = random.Random(args.seed)
    passed = 0
    anti_ok = True
    for _ in range(args.trials):
        a = L.random(rng)
        chi = (L.neg(L.one), a, L.neg(L.sigma(a)))
        try:
            A1, A2 = companion_factorization(L, chi)
        except (AssertionError, RealityError):
            continue
        expected_A2 = (
            (L.zero, L.zero, L.neg(L.one)),
            (L.zero, L.neg(L.one), L.zero),
            (L.neg(L.one), L.zero, L.zero),
        )
        if not linalg.mat_eq(L, A2, expected_A2):
            anti_ok = False
        passed += 1
    ok = _add(rep, "companion_identities", passed == args.trials, f"{passed}/{args.trials}")
    ok &= _add(rep, "second_factor_antidiagonal", anti_ok)
    reports.finalize(rep, time.perf_counter() - start)
    return rep, ok


def cmd_norms(args):
    start = time.perf_counter()
    q = args.q
    rep = reports.new_report("norms", {"q": q}, None)
    k = PrimeField(q)
    L = QuadraticEtale(k, k.nonsquare())
    E = CubicAlgebra(L, _first_irreducible_cubic(k))
    q1, q2 = norm_quotient_report(E)
    ok = _add(rep, "norm_one_quotient_trivial", q1 == 1, f"|L^1/N(E^1)| = {q1}")
    ok &= _add(rep, "base_norm_quotient_trivial", q2 == 1, f"|k*/N(F*)| = {q2}")
    reports.finalize(rep, time.perf_counter() - start)
    return rep, ok


def cmd_report(args):
    import json

    try:
        with open(args.input) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read report: {exc}") from exc
    except json.JSONDecodeError as exc:
        print(
            f"schema error at /: not valid JSON (line {exc.lineno}, col {exc.colno})",
            file=sys.stderr,
        )
        return None, False
    try:
        reports.validate_report(data)
    except Exception as exc:
        path = "/".join(str(p) for p in getattr(exc, "absolute_path", []) or [])
        print(f"schema error at /{path}: {getattr(exc, 'message', exc)}", file=sys.stderr)
        return None, False
    print(reports.render(data))
    if args.verify:
        try:
            n = reports.verify_witnesses(data)
        except reports.VerificationError as exc:
            print(f"verification failed: {exc}", file=sys.stderr)
            return None, False
        print(f"witnesses re-verified: {n}")
        left = len(data.get("witnesses", [])) - n
        if left:
            print(f"witnesses left unverified: {left}")
            return None, None
    return None, True


if __name__ == "__main__":
    sys.exit(main())
