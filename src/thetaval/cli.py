"""Command-line surface: verify, eval, sweep, complete, catalog.

Reports are JSON with a fixed field order and canonical entry ordering
(catalog ids sorted lexicographically, sweep points in grid order), so
two runs at the same version, precision and inputs are byte-identical.

`eval` holds no grammar of its own: `exact.parse_expr` reads the text
into the same tree the catalog uses, and `exact.eval_expr` evaluates it
(with its exact cospi table).  Every command runs through the one loop
`precision.certify`: a result too wide to decide runs again at more bits,
up to 8 times the requested precision; `prec_bits_used` reports the bits.

Exit codes: 0 all checks pass; 1 a valid input's check failed or stayed
undecided at the cap; 2 the input was refused.  A command raises every
error, and `main` alone maps it to an exit code and a label (`_OUTCOMES`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from importlib import import_module

from . import __version__
from .errors import DomainError, ParseError, PowerTooLarge, ThetavalError, Undecided
from .precision import CAP_FACTOR, Ball, PrecCtx, Record, agreement_digits, certify, decimal_str
from .precision import _log10_floor, memo, rad_exponent, rad_exponent_str, rad_shortfall

BITS_PER_DIGIT = 3.33
DEFAULT_BITS = 512
MAX_BITS = 1 << 20  # a larger request is refused before any arithmetic

# The first row that matches an error gives its exit code and stderr label;
# Undecided comes first, since a divisor straddling zero is a DomainError too.
_OUTCOMES = (
    (Undecided, 1, "undecided at {cap} bits"),
    (ParseError, 2, "parse error"),
    (PowerTooLarge, 2, "size error"),
    (DomainError, 2, "domain error"),
    ((ValueError, ZeroDivisionError), 2, "usage error"),
    (OSError, 2, "output error"),
    (ThetavalError, 1, "evaluation error"),
)


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
        bits = DEFAULT_BITS
    if bits > MAX_BITS:
        raise ValueError(f"requested precision above {MAX_BITS} bits")
    return PrecCtx(bits).bits  # fewer than 64 bits is a usage error in every command


def _entry(entry_id, status, digits, lhs_ball, provenance, bits_used):
    return {
        "id": entry_id,
        "status": status,
        "agreement_digits": max(0, digits),
        "lhs_mid_decimal": decimal_str(lhs_ball, 50),
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


def _resolve_jobs(args) -> int:
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    return args.jobs


def _map(worker, tasks: list, jobs: int) -> list:
    """worker(task) for each task, in `jobs` processes if jobs > 1 (only then imported)."""
    if jobs <= 1:
        return [worker(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks))


def _verify_worker(task: tuple) -> dict:  # (exact.Identity, bits)
    from .exact import verify_identity

    ident, bits = task
    rep = verify_identity(ident, PrecCtx(bits))
    return _entry(
        ident.id, rep.status, rep.agreement_digits, rep.lhs, ident.provenance, rep.prec_bits_used
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    from .exact import build_catalog

    bits, jobs = _resolve_bits(args), _resolve_jobs(args)
    catalog = build_catalog()
    known = set(catalog.ids())
    ids = sorted(known) if args.all or not args.ids else list(args.ids)
    for entry_id in ids:
        if entry_id not in known:
            raise ValueError(f"unknown catalog id: {entry_id}")
    ids = sorted(set(ids))
    tasks = [(catalog.get(entry_id), bits) for entry_id in ids]
    results = _map(_verify_worker, tasks, jobs)  # in id order, as the tasks
    _emit(_report(bits, results), args.out)
    return 0 if all(e["status"] == "verified" for e in results) else 1


def cmd_eval(args) -> int:
    from .exact import eval_expr, parse_expr

    bits = _resolve_bits(args)
    value = eval_expr(parse_expr(args.expression, bits), PrecCtx(bits))
    implied = int(bits / 3.3219280948873626)
    certified = implied
    if value.m and value.r:
        certified = max(1, _log10_floor(abs(value.m), value.f)[0] - rad_exponent(value) + 1)
    print(f"value  = {decimal_str(value, max(1, min(implied, 1000, certified)))}")
    print(f"radius <= {rad_exponent_str(value)}")
    return 0


def _q_point(point: str) -> tuple[Fraction]:
    q = Fraction(point.strip())
    if not 0 < q < 1:
        raise DomainError(f"grid point {point} outside (0, 1)")
    return (q,)


def _yi_point(point: str) -> list[Fraction]:
    parts = [Fraction(p) for p in point.split(":")]
    if len(parts) != 5:
        raise DomainError("yi_product points are k:a:b:c:d tuples")
    return parts


class Sweep(Record):
    __slots__ = ("grid", "read", "labels", "residuals")


# Each sweep target, declared once: its default grid, how a grid point is
# read into the residual function's arguments, the label suffix of each
# residual row, and that function as "module.name".  The module is imported,
# and the function looked up, per call: a command loads only the layer it runs.
SWEEPS = {
    "deg3": Sweep("0.05,0.1,0.2,0.3,0.4", _q_point, ("#eq", "#reciprocal"),
                  "modular.verify_degree3"),
    "deg15": Sweep("0.15,0.4", _q_point, ("",), "modular.verify_degree15"),
    "jims": Sweep("0.3,0.6,0.9", _q_point, ("",), "modular.jims_identity"),
    "septic": Sweep("0.1,0.2,0.3,0.4", _q_point, ("#p_uvw", "#quotient", "#quartic"),
                    "lostnotebook.septic_residuals"),
    "yi_product": Sweep("2:1:6:2:3,3:1:1:1:1,5:2:2:4:1", _yi_point, ("",),
                        "modular.yi_product_theorem"),
}


def _sweep_status(residual: Ball) -> str:
    if residual.contains_zero():
        return "undecided" if rad_shortfall(residual) else "pass"
    return "fail"


def _sweep_worker(task: tuple[str, str, int]) -> list[dict]:
    target, point, bits = task
    sweep = SWEEPS[target]
    args = sweep.read(point)
    module, name = sweep.residuals.split(".")
    residuals = getattr(import_module(f"{__package__}.{module}"), name)

    def rows_at(bits: int) -> tuple:
        rows = residuals(*args, PrecCtx(bits))
        return rows if isinstance(rows, tuple) else (rows,)

    rows, used = certify(
        rows_at,
        bits,
        lambda rows: rows if all(r.contains_zero() for r in rows) else (),
    )
    return [
        _entry(
            f"{target}@{point}{label}",
            _sweep_status(residual),
            agreement_digits(residual, Ball(0, 0, residual.f)),
            residual,
            f"residual sweep {target}",
            used,
        )
        for label, residual in zip(sweep.labels, rows)
    ]


def cmd_sweep(args) -> int:
    bits, jobs = _resolve_bits(args), _resolve_jobs(args)
    grid = SWEEPS[args.target].grid if args.grid is None else args.grid
    tasks = [(args.target, point, bits) for point in grid.split(",") if point.strip()]
    if not tasks:
        raise ValueError("--grid has no points")
    groups = _map(_sweep_worker, tasks, jobs)
    entries = [e for group in groups for e in group]
    _emit(_report(bits, entries), args.out)
    return 0 if all(e["status"] == "pass" for e in entries) else 1


def cmd_complete(args) -> int:
    from .exact import render_expr
    from .lostnotebook import complete_evaluation  # the one command that runs it

    result = complete_evaluation(PrecCtx(_resolve_bits(args)))
    print(f"identity    : {render_expr(result.identity.lhs)} = {render_expr(result.identity.rhs)}")
    print(f"branch      : {result.state.branch}")
    print(f"permutation : {result.assignment.permutation_index} (of ascending roots)")
    print(f"cos pairs   : {result.cos_pairs}")
    print(f"digits      : {result.report.agreement_digits}")
    print(f"status      : {result.report.status}")
    return 0 if result.report.status == "verified" else 1


def cmd_catalog(args) -> int:
    from .exact import build_catalog

    catalog = build_catalog()
    _emit(json.dumps(catalog.json_entries(), indent=2) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p, report: bool = False):
    """--prec and --digits; with `report`, --out and --jobs of a JSON report."""
    p.add_argument("--prec", type=int, help="working precision in bits")
    p.add_argument(
        "--digits", type=int, help=f"decimal digit target ({BITS_PER_DIGIT} bits/digit)"
    )
    if report:
        p.add_argument("--out", help="write the JSON report to this path")
        p.add_argument("--jobs", type=int, default=1, help="parallel workers")


@memo
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
    _add_common(p, report=True)

    p = sub.add_parser("eval", help="evaluate an expression to certified digits")
    p.add_argument("expression", nargs="?")  # a text starting with "-" is filled in by `main`
    _add_common(p)

    p = sub.add_parser("sweep", help="verify residual identities over a grid")
    p.add_argument("target", choices=sorted(SWEEPS))
    p.add_argument("--grid", help="comma-separated points (k:a:b:c:d for yi_product)")
    _add_common(p, report=True)

    p = sub.add_parser("complete", help="run the septic completion pipeline")
    _add_common(p)

    p = sub.add_parser("catalog", help="list catalog entries as JSON")
    p.add_argument("--out", help="write the JSON to this path")
    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    args, rest = parser.parse_known_args(argv)  # as parse_args does
    if getattr(args, "expression", "") is None and len(rest) == 1:
        args.expression = rest.pop()  # an eval text starting with "-", read as an unknown option
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    if getattr(args, "expression", "") is None:
        parser.error("the following arguments are required: expression")
    # looked up per call, so a cmd_* replaced after the parser was built still runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (ThetavalError, ValueError, ZeroDivisionError, OSError) as exc:
        code, label = next((code, label) for cls, code, label in _OUTCOMES if isinstance(exc, cls))
        if isinstance(exc, Undecided):
            label = label.format(cap=CAP_FACTOR * _resolve_bits(args))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
