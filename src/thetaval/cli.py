"""Command-line surface: verify, eval, sweep, complete, catalog.

Reports are JSON with a fixed field order and canonical entry ordering
(catalog ids sorted lexicographically, sweep points in grid order), so
two runs at the same version, precision and inputs are byte-identical.
Timings are all zero unless --timings is passed, keeping the default
output deterministic.

`eval` holds no grammar of its own: `exact.parse_expr` reads the text
into the same tree the catalog uses, and `exact.eval_expr` evaluates it
(with its doubled-precision retries and exact cospi table).

Exit codes: 0 all checks pass, 1 a mathematical verification failed,
2 usage, parse or domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import __version__
from .errors import DomainError, ParseError, ThetavalError
from .exact import build_catalog, eval_expr, parse_expr, render_expr, render_theta, verify_identity
from .lostnotebook import complete_evaluation, compute_p, compute_uvw, verify_quartic_relation
from .modular import jims_identity, verify_degree3, verify_degree15, yi_product_theorem
from .precision import Ball, PrecCtx, agreement_digits, decimal_str, rad_exponent
from .precision import _log10_floor

BITS_PER_DIGIT = 3.33
DEFAULT_BITS = 512

_DEFAULT_GRIDS = {
    "deg3": "0.05,0.1,0.2,0.3,0.4",
    "deg15": "0.15,0.4",
    "jims": "0.3,0.6,0.9",
    "septic": "0.1,0.2,0.3,0.4",
    "yi_product": "2:1:6:2:3,3:1:1:1:1,5:2:2:4:1",
}


# ---------------------------------------------------------------------------
# report plumbing


def _resolve_bits(args) -> int:
    if args.prec is not None:
        bits = args.prec
    elif args.digits is not None:
        if args.digits <= 0:
            raise ValueError("--digits must be positive")
        bits = max(64, math.ceil(args.digits * BITS_PER_DIGIT))
    else:
        bits = int(os.environ.get("THETAVAL_PREC_BITS") or DEFAULT_BITS)
    return PrecCtx(bits).bits  # fewer than 64 bits is a usage error in every command


def _entry(entry_id, status, digits, lhs_ball, runtime_ms, provenance, bits_used):
    return {
        "id": entry_id,
        "status": status,
        "agreement_digits": max(0, digits),
        "lhs_mid_decimal": decimal_str(lhs_ball, 50),
        "runtime_ms": runtime_ms,
        "provenance": provenance,
        "prec_bits_used": bits_used,
    }


def _report(prec_bits: int, entries: list[dict]) -> str:
    doc = {
        "tool_version": __version__,
        "prec_bits": prec_bits,
        "entries": entries,
    }
    return json.dumps(doc, indent=2) + "\n"


def _emit(text: str, out_path: str | None):
    if out_path and out_path != "-":
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _verify_worker(task: tuple[str, int, bool]) -> dict:
    entry_id, bits, timings = task
    catalog = build_catalog()
    t0 = time.monotonic()
    rep = verify_identity(catalog.get(entry_id), PrecCtx(bits))
    ms = int((time.monotonic() - t0) * 1000) if timings else 0
    return _entry(
        entry_id,
        rep.status,
        rep.agreement_digits,
        rep.lhs,
        ms,
        catalog.get(entry_id).provenance,
        rep.prec_bits_used,
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    bits = _resolve_bits(args)
    catalog = build_catalog()
    known = set(catalog.ids())
    ids = sorted(known) if args.all or not args.ids else list(args.ids)
    for entry_id in ids:
        if entry_id not in known:
            print(f"unknown catalog id: {entry_id}", file=sys.stderr)
            return 2
    ids = sorted(set(ids))
    tasks = [(entry_id, bits, args.timings) for entry_id in ids]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_verify_worker, tasks))
    else:
        results = [_verify_worker(t) for t in tasks]
    results.sort(key=lambda e: e["id"])
    _emit(_report(bits, results), args.out)
    return 0 if all(e["status"] == "verified" for e in results) else 1


def cmd_eval(args) -> int:
    bits = _resolve_bits(args)
    try:
        value = eval_expr(parse_expr(args.expression), PrecCtx(bits))
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ThetavalError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 1
    implied = int(bits / 3.3219280948873626)
    if value.m == 0:
        certified = implied
    elif value.r == 0:
        certified = implied
    else:
        mag, _ = _log10_floor(abs(value.m), value.f)
        rexp = rad_exponent(value)
        certified = max(1, mag - rexp + 1)
    shown = max(1, min(implied, 1000, certified))
    print(f"value  = {decimal_str(value, shown)}")
    rexp = rad_exponent(value)
    print(f"radius <= {'0' if rexp is None else f'1e{rexp:+d}'}")
    return 0


def _parse_grid(text: str) -> list[str]:
    return [p for p in text.split(",") if p.strip()]


def _parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())


def _sweep_point(target: str, point: str, bits: int) -> list[tuple[str, Ball]]:
    ctx = PrecCtx(bits)
    if target == "yi_product":
        parts = [Fraction(p) for p in point.split(":")]
        if len(parts) != 5:
            raise DomainError("yi_product points are k:a:b:c:d tuples")
        return [(point, yi_product_theorem(*parts, ctx))]
    q = _parse_rational(point)
    if not 0 < q < 1:
        raise DomainError(f"grid point {point} outside (0, 1)")
    if target == "deg3":
        r1, r2 = verify_degree3(q, ctx)
        return [(f"{point}#eq", r1), (f"{point}#reciprocal", r2)]
    if target == "deg15":
        return [(point, verify_degree15(q, ctx))]
    if target == "jims":
        return [(point, jims_identity(q, ctx))]
    if target == "septic":
        u, v, w = compute_uvw(q, ctx)
        p = compute_p(q, ctx)
        fw = PrecCtx(bits + 32)
        from .qseries import phi as _phi, q_power_ball

        quot = _phi(q_power_ball(q, Fraction(1, 7), bits + 32), fw) / _phi(
            q**7, fw
        )
        res_p = p - u * v * w
        res_q = (Ball.one(bits) + u + v + w) - quot
        res_r = verify_quartic_relation(q, ctx)
        return [
            (f"{point}#p_uvw", res_p),
            (f"{point}#quotient", res_q),
            (f"{point}#quartic", res_r),
        ]
    raise DomainError(f"unknown sweep target {target}")


def _sweep_worker(task: tuple[str, str, int]) -> list[dict]:
    target, point, bits = task
    entries = []
    for label, residual in _sweep_point(target, point, bits):
        zero = Ball(0, 0, residual.f)
        entries.append(
            _entry(
                f"{target}@{label}",
                "pass" if residual.contains_zero() else "fail",
                agreement_digits(residual, zero),
                residual,
                0,
                f"residual sweep {target}",
                bits,
            )
        )
    return entries


def cmd_sweep(args) -> int:
    bits = _resolve_bits(args)
    grid = _parse_grid(args.grid or _DEFAULT_GRIDS[args.target])
    tasks = [(args.target, point, bits) for point in grid]
    try:
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                groups = list(pool.map(_sweep_worker, tasks))
        else:
            groups = [_sweep_worker(t) for t in tasks]
    except (DomainError, ValueError, ZeroDivisionError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    entries = [e for group in groups for e in group]
    _emit(_report(bits, entries), args.out)
    return 0 if all(e["status"] == "pass" for e in entries) else 1


def cmd_complete(args) -> int:
    bits = _resolve_bits(args)
    try:
        result = complete_evaluation(PrecCtx(bits))
    except ThetavalError as exc:
        print(f"completion failed: {exc}", file=sys.stderr)
        return 1
    print(f"identity    : {render_theta(result.identity.lhs)} = {render_expr(result.identity.rhs)}")
    print(f"branch      : {result.state.branch}")
    print(f"permutation : {result.assignment.permutation_index} (of ascending roots)")
    print(f"cos pairs   : {result.cos_pairs}")
    print(f"digits      : {result.report.agreement_digits}")
    print(f"status      : {result.report.status}")
    return 0 if result.report.status == "verified" else 1


def cmd_catalog(args) -> int:
    catalog = build_catalog()
    _emit(json.dumps(catalog.json_entries(), indent=2) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p):
    p.add_argument("--prec", type=int, help="working precision in bits")
    p.add_argument(
        "--digits", type=int, help=f"decimal digit target ({BITS_PER_DIGIT} bits/digit)"
    )
    p.add_argument("--out", help="write the JSON report to this path")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.add_argument("--timings", action="store_true", help="record wall times")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetaval",
        description="certified verification of explicit theta-function values",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify catalog identities")
    p.add_argument("ids", nargs="*", help="catalog entry ids")
    p.add_argument("--all", action="store_true", help="verify every entry")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("eval", help="evaluate an expression to certified digits")
    p.add_argument("expression")
    _add_common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="verify residual identities over a grid")
    p.add_argument("target", choices=sorted(_DEFAULT_GRIDS))
    p.add_argument("--grid", help="comma-separated points (k:a:b:c:d for yi_product)")
    _add_common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("complete", help="run the septic completion pipeline")
    _add_common(p)
    p.set_defaults(fn=cmd_complete)

    p = sub.add_parser("catalog", help="list catalog entries as JSON")
    p.add_argument("--out", help="write the JSON to this path")
    p.set_defaults(fn=cmd_catalog)
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # bad precision, malformed numbers, ...
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ThetavalError as exc:  # evaluation failure that escaped a command
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
