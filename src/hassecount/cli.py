"""Command-line front end.

Commands: count, order, twist, group, exceptions, table1, selftest.  All data
goes to stdout (JSON by default, TSV via --format tsv), diagnostics to stderr.
Exit codes: 0 success, 2 usage/parse error, 3 domain error (excluded field,
singular curve, field too large, ...), 4 internal invariant violation or any
other unexpected exception.

Randomized commands take --seed (default 0) and use Python's random.Random
(MT19937), so identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import __version__
from .counting import count_points, group_structure
from .curve import Curve, count_exhaustive, quadratic_twist
from .errors import (
    HasseCountError,
    IncompatibleCongruence,
    InternalInvariantError,
    IterationCapExceeded,
)
from .exceptions import (
    COROLLARY_READINGS,
    DEFAULT_COROLLARY_READING,
    enumerate_exceptions,
    verify_table1,
)
from .finite_field import FieldSpec, check_field_size, digits, make_spec
from .integers import prime_powers, split_prime_power
from .order import bsgs_annihilator, exact_order
from .selftest import run_selftest

_RNG_NOTE = "rng=random.Random(MT19937), 64-bit integer seeds"

_INTERNAL_ERRORS = (IterationCapExceeded, IncompatibleCongruence, InternalInvariantError)


class UsageError(ValueError):
    pass


def _field_from_args(args) -> FieldSpec:
    check_field_size(args.q)  # FieldTooLarge is a domain error: exit 3
    try:
        p, k = split_prime_power(args.q)
    except HasseCountError as exc:
        raise UsageError(str(exc)) from exc
    modulus = None
    if getattr(args, "poly", None) is not None:
        enc = args.poly
        modulus = digits(enc, p, k + 1)
        if not 0 <= enc < p ** (k + 1) or modulus[-1] != 1:
            raise UsageError(f"--poly {enc} is not a monic degree-{k} polynomial encoding over F_{p}")
    try:
        return make_spec(p, k, modulus)
    except HasseCountError as exc:
        raise UsageError(str(exc)) from exc


def _curve_from_args(spec: FieldSpec, args) -> Curve:
    parts = args.curve.split(",")
    if len(parts) != 5:
        raise UsageError("--curve wants 5 comma-separated coefficient encodings a1,a2,a3,a4,a6")
    try:
        coeffs = [int(t) for t in parts]
    except ValueError as exc:
        raise UsageError(f"bad curve coefficient: {exc}") from exc
    if any(not 0 <= c < spec.q for c in coeffs):
        raise UsageError(f"curve coefficients must lie in [0, {spec.q})")
    return Curve(spec, *coeffs)


def _point_from_args(curve: Curve, args):
    text = args.point
    if text == "inf":
        return curve.infinity()
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError("--point wants x,y encodings or the literal inf")
    try:
        x, y = (int(t) for t in parts)
    except ValueError as exc:
        raise UsageError(f"bad point coordinate: {exc}") from exc
    if not (0 <= x < curve.spec.q and 0 <= y < curve.spec.q):
        raise UsageError(f"point coordinates must lie in [0, {curve.spec.q})")
    return curve.point(x, y)


def _print_json(value) -> None:
    print(json.dumps(value, sort_keys=True, separators=(",", ":")))


def _emit(record: dict, fmt: str) -> None:
    if fmt == "json":
        _print_json(record)
    else:
        keys = sorted(record)
        print("\t".join(keys))
        print("\t".join(_tsv_cell(record[k]) for k in keys))


def _tsv_cell(v) -> str:
    if isinstance(v, (list, tuple)):
        return ",".join(str(x) for x in v)
    return str(v)


def _curve_command(fields):
    """A command on one curve: parse the field and the curve, then emit q,
    the curve and the command's own fields(curve, args)."""

    def run(args) -> int:
        curve = _curve_from_args(_field_from_args(args), args)
        _emit({"q": curve.spec.q, "curve": list(curve.coefficients()), **fields(curve, args)}, args.format)
        return 0

    return run


def _count_fields(curve: Curve, args) -> dict:
    res = count_points(curve, args.method, random.Random(args.seed))
    return {"count": res.count, "trace": res.trace, "twist_count": res.twist_count,
            "method": res.method, "samples_used": res.samples_used}


def _order_fields(curve: Curve, args) -> dict:
    pt = _point_from_args(curve, args)
    ann = bsgs_annihilator(curve, pt)
    return {"point": args.point, "order": exact_order(curve, pt, ann), "annihilator": ann}


def _twist_fields(curve: Curve, args) -> dict:
    record = {"twist_curve": list(quadratic_twist(curve).coefficients())}
    q = curve.spec.q
    if q <= 1 << 16:
        n = count_exhaustive(curve)
        record.update(count=n, twist_count=2 * (q + 1) - n)
    return record


def _group_fields(curve: Curve, args) -> dict:
    st = group_structure(curve)
    return {"count": st.n1 * st.n2, "lambda": st.n2, "n1": st.n1, "n2": st.n2}


def _cmd_exceptions(args) -> int:
    if args.qmax < 2:
        raise UsageError("--qmax must be >= 2")
    rows = []
    present = []
    for q in prime_powers(args.qmax):
        recs = enumerate_exceptions(q, corollary=args.corollary, reading=args.reading)
        if recs:
            present.append(q)
        rows.extend((r.q, r.M, r.N, r.t, r.t_prime) for r in recs)
    if args.format == "json":
        _print_json(
            {
                "qmax": args.qmax,
                "corollary": args.corollary,
                "reading": args.reading if args.corollary else None,
                "records": [list(r) for r in rows],
                "exceptional_q": present,
            }
        )
    else:
        print("q\tM\tN\tt\tt'")
        for r in rows:
            print("\t".join(str(x) for x in r))
        summary = " ".join(str(q) for q in present)
        print("# exceptional q:" + (" " + summary if summary else ""))
    return 0


def _cmd_table1(args) -> int:
    reports = verify_table1()
    rows = [
        {"q": r.q, "M": r.M, "N": r.N, "t": r.t, "quadruples_ok": r.quadruples_ok, "curve_ok": r.curve_ok,
         "count": r.count, "lambda": r.lam, "twist_lambda": r.twist_lam, "symmetric": r.symmetric,
         "alpha_enc": r.alpha_enc, "alpha_fallback": r.alpha_fallback, "pass": r.ok}
        for r in reports
    ]
    if args.format == "json":
        _print_json(rows)
    else:
        for row in rows:
            cells = [f"{k}={row[k]}" for k in ("q", "M", "N", "t", "count", "lambda", "twist_lambda")]
            note = f" alpha={row['alpha_enc']}" if row["alpha_fallback"] else ""
            print("\t".join(cells) + note + "\t" + ("PASS" if row["pass"] else "FAIL"))
    failed = [r.q for r in reports if not r.ok]
    if failed:
        raise InternalInvariantError(f"table1 rows failed for q in {failed}")
    return 0


def _cmd_selftest(args) -> int:
    results = run_selftest(fast=args.fast)
    for r in results:
        print(f"{r.name}: {'PASS' if r.ok else 'FAIL'} ({r.detail})")
    failed = [r.name for r in results if not r.ok]
    if failed:
        raise InternalInvariantError(f"selftest checks failed: {', '.join(failed)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hassecount",
        description="Elliptic curve point counting over finite fields via point orders.",
    )
    parser.add_argument(
        "--version", action="version", version=f"hassecount {__version__} ({_RNG_NOTE})"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # a string default is parsed by type=int, so only the commands that take
    # --jobs read HASSECOUNT_JOBS (and exit 2 on a malformed value)
    jobs_default = os.environ.get("HASSECOUNT_JOBS", "1")

    for name, fields, text in (
        ("count", _count_fields, "compute #E"),
        ("order", _order_fields, "exact order of a point"),
        ("twist", _twist_fields, "quadratic twist (with both counts when q <= 2^16)"),
        ("group", _group_fields, "group structure (n1, n2)"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--q", type=int, required=True, help="field size, a prime power")
        p.add_argument("--poly", type=int, help="modulus polynomial as canonical integer encoding")
        p.add_argument("--curve", required=True, help="a1,a2,a3,a4,a6 coefficient encodings")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("--format", choices=("json", "tsv"), default="json")
        if name == "order":
            p.add_argument("--point", required=True, help="x,y encodings or inf")
        if name == "count":
            p.add_argument("--method", choices=("auto", "exhaustive", "point_order"), default="auto")
        p.set_defaults(fn=_curve_command(fields))

    p = sub.add_parser("exceptions", help="enumerate exception quadruples for q <= qmax")
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--corollary", action="store_true", help="apply the corollary's t'-side filters")
    p.add_argument(
        "--reading",
        choices=COROLLARY_READINGS,
        default=DEFAULT_COROLLARY_READING,
        help="corollary filter reading (default matches the published excluded set)",
    )
    p.add_argument("--format", choices=("json", "tsv"), default="tsv")
    p.add_argument("--jobs", type=int, default=jobs_default, help="accepted; execution is sequential")
    p.set_defaults(fn=_cmd_exceptions)

    p = sub.add_parser("table1", help="verify all 14 exceptional-case rows")
    p.add_argument("--format", choices=("json", "tsv"), default="tsv")
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser("selftest", help="run the invariant sweep")
    p.add_argument("--fast", action="store_true", help="bounded desk-scale variant")
    p.add_argument("--jobs", type=int, default=jobs_default, help="accepted; execution is sequential")
    p.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error("--jobs must be >= 1")
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _INTERNAL_ERRORS as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except HasseCountError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # any escaped bug still honours the exit-code contract
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
