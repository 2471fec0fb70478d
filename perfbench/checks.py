"""Output checks, run after the timed pass and outside it.

Each operation of a pass is either good or failed.  A failure is an
exception, an unexpected exit code, or an output that misses its check;
nothing is filtered out.  A failure is also *unsound* when the output
contradicts an independent oracle (disjoint enclosures, a residual that
excludes zero): that is a wrong answer, not merely an imprecise one.
"""

from __future__ import annotations

import hashlib
import json
import re

from workloads import PREC_BITS

DIGITS = 100  # the package's own D_TARGET_DIGITS; checked against it below
THETA_RADIUS_SLACK_BITS = 16  # theta radius must be <= 2^(16 - bits)


class Tally:
    """Per-pass check result."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unsound = 0
        self.min_digits = None
        self.failures: list[str] = []
        self.failed_ops: list[int] = []  # positions in the pass

    def op(self, label: str, problems: list[str], unsound: bool = False):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failed_ops.append(self.attempted - 1)
            self.unsound += bool(unsound)
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def digits(self, d: int):
        self.min_digits = d if self.min_digits is None else min(self.min_digits, d)

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "unsound": self.unsound,
            "min_digits": self.min_digits,
            "failures": self.failures,
            "failed_ops": self.failed_ops,
        }


def overlaps(a, b) -> bool:
    """Two balls intersect; decided in integers at the finer scale."""
    f = max(a.f, b.f)
    return abs((a.m << (f - a.f)) - (b.m << (f - b.f))) <= (a.r << (f - a.f)) + (b.r << (f - b.f))


def rad_below_pow10(ball, digits: int) -> bool:
    """radius < 10^-digits, exactly."""
    return ball.r * 10**digits < 1 << ball.f


def check(workload: str, job, result: dict) -> dict:
    from thetaval.exact import D_TARGET_DIGITS

    if D_TARGET_DIGITS != DIGITS:
        raise RuntimeError(f"digit target moved to {D_TARGET_DIGITS}; update the benchmark")
    tally = Tally()
    if workload == "catalog_4096":
        _check_catalog(job, result, tally)
    elif workload == "theta_2048":
        _check_theta(job, result, tally)
    elif workload == "cli_512":
        _check_cli(job, result, tally)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return tally.as_dict()


def _check_catalog(job, result: dict, tally: Tally):
    warm = result["warm_outputs"]
    for i, (ident, rep) in enumerate(zip(job.ops, result["outputs"])):
        if rep is None:
            tally.op(ident.id, ["raised"])
            continue
        problems = []
        disjoint = not overlaps(rep.lhs, rep.rhs)
        if rep.status != "verified":
            problems.append(f"status {rep.status}")
        if disjoint:
            problems.append("enclosures are disjoint")
        if not (rad_below_pow10(rep.lhs, DIGITS) and rad_below_pow10(rep.rhs, DIGITS)):
            problems.append(f"radius not below 1e-{DIGITS}")
        if rep.agreement_digits < DIGITS:
            problems.append(f"{rep.agreement_digits} agreement digits")
        w = warm[i] if warm else None
        if w is None or _ball_key(w.lhs) != _ball_key(rep.lhs) or w.status != rep.status:
            problems.append("warm pass differs from cold pass")
        tally.digits(rep.agreement_digits)
        tally.op(ident.id, problems, unsound=disjoint)


def _ball_key(b) -> tuple:
    return (b.m, b.r, b.f)


def theta_oracle(name: str, args: tuple, ctx):
    """Independent enclosure to compare a theta result against.

    phi, psi, f_neg: the defining series.  chi: returns (chi^2 oracle)
    phi(q) / f(-q^2), both from series.  theta_f: the Jacobi triple
    product (-a; ab)(-b; ab)(ab; ab) through pochhammer_inf.
    """
    from thetaval import qseries

    if name in ("phi", "psi", "f_neg"):
        return getattr(qseries, f"{name}_series")(args[0], ctx)
    if name == "chi":
        q = args[0]
        q2 = q.pow(2) if isinstance(q, qseries.QPoint) else q * q
        return qseries.phi_series(q, ctx) / qseries.f_neg_series(q2, ctx)
    if name == "theta_f":
        a, b = args
        ab = a * b
        p = qseries.pochhammer_inf
        return p(-a, ab, ctx) * p(-b, ab, ctx) * p(ab, ab, ctx)
    raise ValueError(f"no oracle for {name}")


def theta_problems(name: str, args: tuple, value, ctx) -> tuple[list[str], bool, int]:
    """(problems, unsound, agreement digits) of one theta result."""
    from thetaval.precision import agreement_digits

    oracle = theta_oracle(name, args, ctx)
    compared = value * value if name == "chi" else value
    problems = []
    disjoint = not overlaps(compared, oracle)
    if disjoint:
        problems.append("does not overlap its oracle")
    if value.r << (ctx.bits - THETA_RADIUS_SLACK_BITS) > 1 << value.f:
        problems.append(f"radius above 2^({THETA_RADIUS_SLACK_BITS}-{ctx.bits})")
    return problems, disjoint, agreement_digits(compared, oracle)


def _check_theta(job, result: dict, tally: Tally):
    from thetaval.precision import PrecCtx

    ctx = PrecCtx(PREC_BITS["theta_2048"])
    for (name, args), value in zip(job.ops, result["outputs"]):
        label = f"{name}{args[0] if len(args) == 1 else ''}"
        if value is None:
            tally.op(label, ["raised"])
            continue
        problems, unsound, digits = theta_problems(name, args, value, ctx)
        tally.digits(digits)
        tally.op(label, problems, unsound)


_RADIUS_RE = re.compile(r"^radius <= (0|1e([+-]\d+))$", re.M)
_FIELD_RE = re.compile(r"^(\w+)\s*: (.*)$", re.M)


def cli_problems(argv: list[str], output) -> tuple[list[str], bool, list[int]]:
    """(problems, unsound, digits) of one CLI call's (exit code, stdout, stderr)."""
    if output is None:
        return ["raised"], False, []
    rc, out, err = output
    problems = [] if rc == 0 else [f"exit code {rc}: {err.strip()[:120]}"]
    unsound = False
    digits: list[int] = []
    if argv[0] == "sweep":
        try:
            entries = json.loads(out)["entries"] if out else []
        except ValueError:
            return problems + ["report is not JSON"], False, []
        if not entries and rc == 0:
            problems.append("empty report")
        for e in entries:
            digits.append(e["agreement_digits"])
            if e["status"] != "pass":
                unsound = True
                problems.append(f"{e['id']} residual excludes zero")
            elif e["agreement_digits"] < DIGITS:
                problems.append(f"{e['id']} has {e['agreement_digits']} agreement digits")
    elif argv[0] == "eval":
        m = _RADIUS_RE.search(out)
        if m is None:
            problems.append("no radius line")
        elif m.group(2) is not None:
            exp10 = int(m.group(2))
            digits.append(-exp10)
            if exp10 > -DIGITS:
                problems.append(f"radius 1e{exp10:+d} above 1e-{DIGITS}")
    elif argv[0] == "complete":
        fields = dict(_FIELD_RE.findall(out))
        if fields.get("status") != "verified":
            unsound = fields.get("status") == "unverified"
            problems.append(f"status {fields.get('status')}")
        if "digits" in fields:
            digits.append(int(fields["digits"]))
            if int(fields["digits"]) < DIGITS:
                problems.append(f"{fields['digits']} agreement digits")
        else:
            problems.append("no digits line")
    return problems, unsound, digits


def _check_cli(job, result: dict, tally: Tally):
    for argv, output in zip(job.ops, result["outputs"]):
        problems, unsound, digits = cli_problems(argv, output)
        for d in digits:
            tally.digits(d)
        tally.op(" ".join(argv), problems, unsound)


def digests(workload: str, result: dict) -> list[str]:
    """Fingerprint of each output of a pass; equal outputs give equal digests."""
    def key(out):
        if out is None:
            return None
        if workload == "catalog_4096":
            return (out.status, out.agreement_digits, out.prec_bits_used, _ball_key(out.lhs), _ball_key(out.rhs))
        if workload == "theta_2048":
            return _ball_key(out)
        return out

    return [hashlib.sha256(repr(key(o)).encode()).hexdigest()[:16] for o in result["outputs"]]
