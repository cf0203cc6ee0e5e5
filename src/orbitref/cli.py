"""Command-line front end: verdict reports, field escalation, witness
attachment, oracle delegation, exhaustive scans.

Commands
    jordan               spectral profile of a matrix file
    decide               verdicts for the requested properties
    witness              build + validate the non-reflexivity witness
    oracle               exact OrbRef0 membership / enumeration over GF(q)
    ffscan               sweep every d x d matrix over GF(q), with cache
    demo-counterexample  factorial-power truncation demo, exact arithmetic

--field names the only fields a matrix widens to: qi (from Q) and c64
(from Q or Q(i)); --tol sets the tolerance of that widening to c64, and a
c64 file sets its own "tol".  ffscan --q takes a prime or the order of a
field with a stock modulus.

Exit codes: 0 ok, 2 parse error, 3 characteristic polynomial does not split
(over Q escalate with --field qi or --field c64, over Q(i) with --field c64;
GF(q) has no wider field), 4 budget exceeded, 5 internal.
Reports carry no timestamps: identical invocations (same seed/parameters)
are byte-identical, for ffscan regardless of worker count.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from functools import cache

from . import __version__
from ._gaussint import is_prime
from .counterexample import truncation_table, verify_no_single_power
from .deciders import (
    PROP_ALGEBRAIC,
    PROP_C_ORBIT_REFLEXIVE,
    PROP_ORBIT_REFLEXIVE,
    PROP_REFLEXIVE,
    decide_algebraic_f_orbit_reflexive,
    decide_c_orbit_reflexive,
    decide_orbit_reflexive,
    decide_reflexive,
    upgrade_algebraic_verdict,
)
from .errors import BudgetExceeded, NotSplit, OrbitrefError, ParseError
from .fields import (
    CONWAY_POLYNOMIALS,
    KIND_COMPLEX,
    KIND_FINITE,
    KIND_GAUSSIAN,
    KIND_RATIONALS,
    FiniteField,
)
from .fileio import (
    MatrixFile,
    escalate_field,
    load_matrix_file,
    render_report,
)
from .oracle import (
    DEFAULT_BUDGET,
    default_cache_path,
    enumerate_orbref0,
    orbref0_contains,
    scan_space,
)
from .spectra import block_profile
from .witness import build_c_orbit_witness, canonical_jordan, validate_witness

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_SPLIT = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5

# demo-counterexample's work grows as n^3: about 2 s at n = 200, 17 s at 400
DEMO_MAX_N = 200

# the exit-3 hint's name for each field a matrix can be escalated to
_WIDER_FIELDS = {KIND_GAUSSIAN: "--field qi (exact Gaussian rationals)",
                 KIND_COMPLEX: "--field c64 (floating complex)"}

# the orders ffscan scans besides the primes: those of the stock extension fields
_STOCK_ORDERS = {p ** k: (p, k) for p, k in CONWAY_POLYNOMIALS}

_PROPERTY_ALIASES = {
    "reflexive": PROP_REFLEXIVE,
    "orbit": PROP_ORBIT_REFLEXIVE,
    "orbit-reflexive": PROP_ORBIT_REFLEXIVE,
    "c-orbit": PROP_C_ORBIT_REFLEXIVE,
    "c-orbit-reflexive": PROP_C_ORBIT_REFLEXIVE,
    "algebraic": PROP_ALGEBRAIC,
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="orbitref",
        description="Decide reflexivity, orbit reflexivity and C-orbit "
                    "reflexivity of matrices from their Jordan block data.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, with_field=True):
        p.add_argument("--input", required=True, help="matrix file (JSON)")
        if with_field:
            p.add_argument("--field", choices=list(_WIDER_FIELDS),
                           help="reinterpret the input over a wider field")
            p.add_argument("--tol", type=float, default=None,
                           help="tolerance of --field c64 on q or qi input")
        p.add_argument("--format", choices=["json", "table"], default="json")
        p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("jordan", help="spectral profile only")
    add_io(p)
    p.set_defaults(func=cmd_jordan)

    p = sub.add_parser("decide", help="verdicts for the requested properties")
    add_io(p)
    p.add_argument("--properties",
                   help="comma list: reflexive,orbit,c-orbit,algebraic "
                        "(default chosen by field kind)")
    p.add_argument("--powers", type=int, default=2000,
                   help="residual horizon N for witness validation")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("witness", help="build and validate the witness operator")
    add_io(p)
    p.add_argument("--powers", type=int, default=2000)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("oracle", help="exact OrbRef0 computations over GF(q)")
    add_io(p, with_field=False)
    p.add_argument("--candidate", help="matrix file for a membership check")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="work limit: q^(d^2) candidates to enumerate, or with "
                        "--candidate q^d vector checks plus every step of their "
                        "walks x -> Tx -> T^2 x (exit 4 past it)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("ffscan", help="exhaustive scan of M_d(GF(q))")
    p.add_argument("--q", type=int,
                   help="a prime, or the order of a stock extension field")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--cache", help="JSON-lines cache file; each scan appends one "
                   "line of index and verdict columns "
                   "(default ORBITREF_CACHE or .orbitref/ffscan.jsonl)")
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--nilpotent-only", action="store_true")
    p.add_argument("--rigidity", action="store_true",
                   help="also check scaled-power rigidity per matrix")
    p.add_argument("--limit", type=int)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ffscan)

    p = sub.add_parser("demo-counterexample",
                       help="factorial-power truncation demo")
    p.add_argument("--n", type=int, default=8,
                   help=f"truncation level, 2 to {DEMO_MAX_N}")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_demo)

    return parser


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _envelope(command: str, parameters: dict, mf: MatrixFile | None = None) -> dict:
    report = {
        "tool": {"name": "orbitref", "version": __version__},
        "command": command,
        "parameters": parameters,
    }
    if mf is not None:
        report["input"] = {"echo": mf.raw, "sha256": mf.sha256}
    return report


def _emit(report: dict, args) -> int:
    if args.format == "table":
        text = _render_table(report)
    else:
        text = render_report(report)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _render_table(report: dict) -> str:
    lines = [f"orbitref {report['tool']['version']} - {report['command']}"]
    profile = report.get("profile")
    if profile:
        lines.append(f"dim {profile['dim']}  split={profile['split']} "
                     f"nilpotent={profile['nilpotent']} fragile={profile['fragile']}")
        lines.append(f"{'eigenvalue':>20} {'blocks':>14} {'|.|^2':>10}")
        for e in profile["entries"]:
            lines.append(f"{e['eigenvalue']:>20} {str(e['block_sizes']):>14} "
                         f"{str(e['modulus_sq']):>10}")
    for v in report.get("verdicts", []):
        answer = {True: "yes", False: "NO", None: "unknown"}[v["answer"]]
        lines.append(f"{v['property']:<28} {answer:<8} [{v['citation']}]"
                     + ("  (fragile)" if v.get("fragile") else ""))
    w = report.get("witness")
    if w:
        lines.append(f"witness commutator_nonzero={w['commutator_nonzero']} "
                     f"verdict_supported={w['verdict_supported']}")
        for row in w["membership_residuals"][:6]:
            cps = ", ".join(f"N={k}: {v:.3e}" for k, v in row["checkpoints"].items())
            lines.append(f"  {row['vector']:<12} {cps}")
        if len(w["membership_residuals"]) > 6:
            lines.append(f"  ... {len(w['membership_residuals']) - 6} more vectors")
    scan = report.get("scan")
    if scan:
        lines.append(f"scan GF({scan['q']}) d={scan['d']}: {scan['scanned']} matrices "
                     f"({scan['from_cache']} cached)")
        for k, v in sorted(scan["counts"].items()):
            lines.append(f"  {k:<24} {v}")
        if scan["violations"]:
            lines.append(f"  split-but-unequal: {len(scan['violations'])}")
    demo = report.get("demo")
    if demo:
        lines.append("n   n!        T^(n!) matches S on all basis vectors")
        for row in demo["truncations"]:
            lines.append(f"{row['n']:<3} {row['factorial']:<9} "
                         f"{row['all_basis_vectors_match']}")
        lines.append(f"single scaled power ruled out: {demo['no_single_power']} "
                     f"({len(demo['witnesses'])} witnesses)")
    others = report.get("oracle")
    if others:
        for k, v in sorted(others.items()):
            lines.append(f"{k}: {v}")
    return "\n".join(lines) + "\n"


def _load_input(args) -> MatrixFile:
    mf = load_matrix_file(args.input)
    if args.tol is not None and (args.field != KIND_COMPLEX
                                 or mf.field.kind == KIND_COMPLEX):
        raise ParseError('--tol needs --field c64 on q or qi input; '
                         'a c64 file sets its own "tol"')
    if args.field:
        mf = escalate_field(mf, args.field, args.tol)
    return mf


def _default_properties(kind: str) -> list[str]:
    if kind == KIND_FINITE:
        return [PROP_ALGEBRAIC]
    return [PROP_REFLEXIVE, PROP_ORBIT_REFLEXIVE, PROP_C_ORBIT_REFLEXIVE]


def _parse_properties(spec: str | None, kind: str) -> list[str]:
    if not spec:
        return _default_properties(kind)
    out = []
    for token in spec.split(","):
        token = token.strip().lower()
        prop = _PROPERTY_ALIASES.get(token, token)
        if prop not in (PROP_REFLEXIVE, PROP_ORBIT_REFLEXIVE,
                        PROP_C_ORBIT_REFLEXIVE, PROP_ALGEBRAIC):
            raise ParseError(f"unknown property {token!r}")
        out.append(prop)
    exact_complex = kind in (KIND_RATIONALS, KIND_GAUSSIAN, KIND_COMPLEX)
    for prop in out:
        if prop == PROP_ALGEBRAIC and kind != KIND_FINITE:
            raise ParseError("algebraic verdicts need a finite-field matrix")
        if prop in (PROP_C_ORBIT_REFLEXIVE, PROP_ORBIT_REFLEXIVE) and not exact_complex:
            raise ParseError(f"{prop} needs a matrix over Q, Q(i) or c64")
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_jordan(args) -> int:
    mf = _load_input(args)
    profile = block_profile(mf.matrix)
    report = _envelope("jordan", {}, mf)
    report["profile"] = profile.as_dict()
    return _emit(report, args)


def _check_budget(args) -> None:
    if args.budget < 1:
        raise ParseError("--budget must be at least 1")


def _check_residual_args(args) -> None:
    if args.powers < 20:
        raise ParseError("--powers must be at least 20")
    if args.samples < 0:
        raise ParseError("--samples must be non-negative")
    if args.seed < 0:
        raise ParseError("--seed must be non-negative")


def cmd_decide(args) -> int:
    _check_residual_args(args)
    _check_budget(args)
    mf = _load_input(args)
    kind = mf.field.kind
    props = _parse_properties(args.properties, kind)
    parameters = {
        "seed": args.seed, "samples": args.samples, "powers": args.powers,
        "budget": args.budget, "properties": props,
    }
    report = _envelope("decide", parameters, mf)
    profile = None
    if PROP_REFLEXIVE in props or PROP_C_ORBIT_REFLEXIVE in props:
        profile = block_profile(mf.matrix)
        report["profile"] = profile.as_dict()
    elif kind == KIND_FINITE:
        # informational only: the algebraic verdict handles non-split input
        try:
            profile = block_profile(mf.matrix)
            report["profile"] = profile.as_dict()
        except NotSplit as exc:
            report["profile"] = {"split": False,
                                 "residual_factor": str(exc.residual)}
    verdicts = []
    witness_report = None
    for prop in props:
        if prop == PROP_REFLEXIVE:
            verdicts.append(decide_reflexive(profile))
        elif prop == PROP_ORBIT_REFLEXIVE:
            verdicts.append(decide_orbit_reflexive(mf.matrix))
        elif prop == PROP_C_ORBIT_REFLEXIVE:
            v = decide_c_orbit_reflexive(profile)
            if v.answer is False:
                T, S = v.witness
                witness_report = validate_witness(
                    S, T, samples=args.samples, horizon=args.powers,
                    seed=args.seed)
            verdicts.append(v)
        elif prop == PROP_ALGEBRAIC:
            v = decide_algebraic_f_orbit_reflexive(mf.matrix)
            if v.answer is None:
                v = upgrade_algebraic_verdict(v, mf.matrix, budget=args.budget)
            verdicts.append(v)
    report["verdicts"] = [v.as_dict() for v in verdicts]
    if witness_report is not None:
        report["witness"] = witness_report.as_dict()
    return _emit(report, args)


def cmd_witness(args) -> int:
    _check_residual_args(args)
    mf = _load_input(args)
    if mf.field.kind == KIND_FINITE:
        raise ParseError("witness needs a matrix over Q, Q(i) or c64")
    profile = block_profile(mf.matrix)
    parameters = {"seed": args.seed, "samples": args.samples,
                  "powers": args.powers}
    report = _envelope("witness", parameters, mf)
    report["profile"] = profile.as_dict()
    verdict = decide_c_orbit_reflexive(profile, attach_witness=False)
    report["verdicts"] = [verdict.as_dict()]
    if verdict.answer:
        report["witness"] = None
        report["note"] = ("criterion holds: the operator is C-orbit reflexive; "
                          "no witness exists")
    else:
        T, layout = canonical_jordan(profile)
        S = build_c_orbit_witness(profile)
        wr = validate_witness(S, T, samples=args.samples, horizon=args.powers,
                              seed=args.seed)
        report["witness"] = wr.as_dict()
        report["witness"]["coordinates"] = "canonical-jordan-model"
        report["witness"]["block_order"] = [[str(e), s] for e, s in layout]
    return _emit(report, args)


def cmd_oracle(args) -> int:
    _check_budget(args)
    mf = load_matrix_file(args.input)
    if mf.field.kind != KIND_FINITE:
        raise ParseError("oracle needs a finite-field matrix")
    report = _envelope("oracle", {"budget": args.budget}, mf)
    if args.candidate:
        cand = load_matrix_file(args.candidate)
        if cand.field != mf.field:
            raise ParseError(f"candidate is over {cand.field.name}, "
                             f"the input over {mf.field.name}")
        if cand.matrix.n != mf.matrix.n:
            raise ParseError(f"candidate is {cand.matrix.n}x{cand.matrix.n}, "
                             f"the input {mf.matrix.n}x{mf.matrix.n}")
        ok, failing = orbref0_contains(mf.matrix, cand.matrix, budget=args.budget)
        report["oracle"] = {
            "check": "orbref0_contains",
            "candidate_sha256": cand.sha256,
            "contains": ok,
            "failing_vector": [str(v) for v in failing] if failing else None,
        }
    else:
        result = enumerate_orbref0(mf.matrix, budget=args.budget)
        oracle = {"check": "enumerate_orbref0"}
        oracle.update(result.summary())
        oracle["difference_sample"] = [S.to_strings() for S in result.difference[:5]]
        report["oracle"] = oracle
    return _emit(report, args)


def cmd_ffscan(args) -> int:
    if args.q is None:
        raise ParseError("ffscan needs --q")
    try:
        prime = is_prime(args.q)
    except ValueError as exc:  # q past the primality test's bound
        raise ParseError(str(exc)) from exc
    if not prime and args.q not in _STOCK_ORDERS:
        stock = ", ".join(map(str, sorted(_STOCK_ORDERS)))
        raise ParseError(f"ffscan scans GF(q) for a prime q or a stock extension "
                         f"field, q = {stock}; {args.q} is neither")
    if not 1 <= args.d <= 3:
        raise ParseError("ffscan supports --d 1, 2 or 3")
    if args.limit is not None and args.limit < 1:
        raise ParseError("--limit must be at least 1")
    if args.workers < 1:
        raise ParseError("--workers must be at least 1")
    _check_budget(args)
    field = FiniteField(*_STOCK_ORDERS.get(args.q, (args.q, 1)))
    cache = None
    if not args.no_cache:
        cache = args.cache or default_cache_path()
    result = scan_space(
        field, args.d, nilpotent_only=args.nilpotent_only,
        rigidity=args.rigidity,
        budget=args.budget, workers=args.workers, limit=args.limit,
        cache_path=cache)
    parameters = {"q": args.q, "d": args.d, "budget": args.budget,
                  "nilpotent_only": args.nilpotent_only,
                  # the scan always counts one matrix per scaling class
                  "rigidity": args.rigidity, "dedup": True,
                  "limit": args.limit}
    report = _envelope("ffscan", parameters)
    # a table prints the number of violations, not their rows and hashes
    scan = result.as_dict(hashed=args.format == "json")
    scan["field"] = field.describe()
    report["scan"] = scan
    return _emit(report, args)


def cmd_demo(args) -> int:
    if not 2 <= args.n <= DEMO_MAX_N:
        raise ParseError(f"--n must lie between 2 and {DEMO_MAX_N}")
    ok, witnesses = verify_no_single_power(args.n)
    report = _envelope("demo-counterexample",
                       {"n": args.n, "max_power": args.n - 1})
    report["demo"] = {
        "truncations": truncation_table(args.n),
        "no_single_power": ok,
        "witnesses": witnesses,
    }
    return _emit(report, args)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"orbitref: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotSplit as exc:
        print(f"orbitref: {exc}", file=sys.stderr)
        wider = " or ".join(map(_WIDER_FIELDS.get, exc.residual.field.wider))
        if wider:  # a GF(q) matrix escalates to no field
            print(f"hint: escalate the field with {wider}", file=sys.stderr)
        return EXIT_NOT_SPLIT
    except BudgetExceeded as exc:
        print(f"orbitref: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OrbitrefError as exc:
        print(f"orbitref: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
