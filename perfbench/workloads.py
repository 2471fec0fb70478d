"""Seeded inputs and the timed pass of each benchmark workload.

`generate` turns (workload, seed) into plain JSON data: strings and
numbers only, so the same seed gives byte-identical inputs and thetaval
receives nothing but the generated values.  `prepare` converts that data
into thetaval objects (part of set-up), and `Job.run` is the timed,
closed-loop pass: one caller, each operation starting only after the
previous one returned.

Every workload runs at one fixed precision; together they cover 512, 2048
and 4096 bits.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import time
import traceback
from fractions import Fraction

import hostspeed

PREC_BITS = {"catalog_4096": 4096, "theta_2048": 2048, "cli_512": 512}
# share of each workload's time in big-integer long division, which the
# host's slow phase hardly slows (see hostspeed.py): Ball division is
# about 73 % of a cold catalog pass; theta and CLI work is products.
DIV_SHARE = {"catalog_4096": 0.73, "theta_2048": 0.0, "cli_512": 0.0}

# theta_2048: per pass, THETA_DISTINCT nomes for each of phi, psi, f_neg and
# chi (r log-uniform, one per stratum so every seed costs about the same),
# THETA_F calls on rational pairs, and THETA_REPEATS calls that repeat an
# earlier (function, nome) pair.
THETA_FUNCS = ("phi", "psi", "f_neg", "chi")
THETA_DISTINCT = 18
THETA_F = 24
THETA_REPEATS = 24
R_MIN, R_MAX = Fraction(1, 1000), Fraction(64)

# cli_512: one-point sweeps per target (q uniform, in mirrored pairs so
# every seed costs about the same), eval expressions, one `complete`.
SWEEP_TARGETS = ("deg3", "deg15", "jims", "septic")
SWEEPS_PER_TARGET = 30
YI_SWEEPS = 30
EVALS = 600
Q_LO, Q_HI = 0.02, 0.95


def generate(workload: str, seed: int):
    """Plain-data inputs of one pass of `workload`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalog_4096":
        return {"entries": "all"}  # the fixed 19-entry catalog, in id order
    if workload == "theta_2048":
        return {"calls": _theta_calls(rng)}
    if workload == "cli_512":
        return {"argv": _cli_argvs(rng)}
    raise ValueError(f"unknown workload {workload!r}")


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of n equal strata of [lo, hi]."""
    width = (hi - lo) / n
    return [lo + (i + rng.random()) * width for i in range(n)]


def _antithetic(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n uniform draws from [lo, hi], two mirrored ones (u, 1 - u) in each of
    n/2 equal strata, so the cost of a seed's points varies less with the
    seed where cost grows steeply with the value (q near 1)."""
    width = (hi - lo) / (n // 2)
    points = []
    for i in range(n // 2):
        u = rng.random()
        points += [lo + (i + u) * width, lo + (i + 1 - u) * width]
    return points


def _theta_calls(rng: random.Random) -> list[list]:
    lo, hi = math.log(R_MIN), math.log(R_MAX)
    distinct = []
    for fn in THETA_FUNCS:
        for x in _stratified(rng, THETA_DISTINCT, lo, hi):
            r = Fraction(round(math.exp(x) * 10**6), 10**6)
            r = min(max(r, R_MIN), R_MAX)
            distinct.append([fn, rng.choice((1, -1)), str(r)])
    pairs = []
    for t in _stratified(rng, THETA_F, 0.0, 0.9):  # t = |ab|, which sets the cost
        a = Fraction(max(1, round(rng.uniform(max(t / 0.95, 0.05), 0.95) * 100)), 100)
        b = Fraction(max(1, round(t / a * 100)), 100)
        while a * b > Fraction(9, 10):
            b -= Fraction(1, 100)
        pairs.append(["theta_f", str(a * rng.choice((1, -1))), str(b * rng.choice((1, -1)))])
    calls = distinct + pairs
    rng.shuffle(calls)
    first = next(i for i, c in enumerate(calls) if c[0] != "theta_f")
    for _ in range(THETA_REPEATS):
        pos = rng.randint(first + 1, len(calls))  # after some distinct theta call
        calls.insert(pos, list(rng.choice([c for c in calls[:pos] if c[0] != "theta_f"])))
    return calls


def _q_grid(rng: random.Random, n: int) -> list[str]:
    return [f"{min(max(q, Q_LO + 1e-4), Q_HI - 1e-4):.4f}" for q in _antithetic(rng, n, Q_LO, Q_HI)]


def _yi_tuple(rng: random.Random) -> str:
    a, b = rng.randint(1, 6), rng.randint(1, 6)
    c = rng.choice([d for d in range(1, a * b + 1) if (a * b) % d == 0])
    k = rng.randint(2, 6)
    return f"{k}:{a}:{b}:{c}:{a * b // c}"


def _cli_argvs(rng: random.Random) -> list[list[str]]:
    argvs = []
    for target in SWEEP_TARGETS:
        argvs += [["sweep", target, "--grid", q] for q in _q_grid(rng, SWEEPS_PER_TARGET)]
    argvs += [["sweep", "yi_product", "--grid", _yi_tuple(rng)] for _ in range(YI_SWEEPS)]
    argvs += [["eval", random_expression(rng)] for _ in range(EVALS)]
    argvs.append(["complete"])
    rng.shuffle(argvs)
    return argvs


# ---------------------------------------------------------------------------
# eval expressions: only values that are defined and well away from any
# singularity, so a certified radius <= 1e-100 is reachable at 512 bits.


def _dec(rng: random.Random, lo: int, hi: int) -> str:
    """A decimal literal k/1000 with lo <= k <= hi."""
    k = rng.randint(lo, hi)
    sign = "-" if k < 0 else ""
    return f"{sign}{abs(k) // 1000}.{abs(k) % 1000:03d}"


def _nome(rng: random.Random) -> str:
    if rng.random() < 0.5:
        r = Fraction(rng.randint(1, 400), rng.choice((10, 20, 50)))
        return f"qpoint({rng.choice(('+1', '-1'))}, {r})"
    k = rng.randint(20, 900) * rng.choice((1, -1))
    return _dec(rng, k, k)


def _positive_leaf(rng: random.Random) -> str:
    """An expression whose value is certainly positive and of moderate size."""
    kind = rng.randrange(11)
    if kind == 0:
        return str(rng.randint(1, 9))
    if kind == 1:
        return "pi"
    if kind == 2:
        den = rng.choice((2, 3, 4, 6, 8))
        return f"gamma({rng.randint(1, 2 * den)}/{den})"
    if kind == 3:
        return f"{rng.choice(('phi', 'psi', 'fneg', 'chi'))}({_nome(rng)})"
    if kind == 4:
        return f"f({_dec(rng, -900, 900)}, {_dec(rng, -900, 900)})"
    if kind == 5:
        return f"agm({_dec(rng, 100, 5000)}, {_dec(rng, 100, 5000)})"
    if kind == 6:
        return f"hyp({_dec(rng, 10, 950)})"
    if kind == 7:
        return f"{rng.choice(('h', 'hprime'))}({rng.randint(1, 6)}, {rng.randint(1, 6)})"
    if kind == 8:
        return f"classinv({rng.randint(1, 200)})"
    if kind == 9:
        return f"(cospi({rng.randint(-9, 9)}/{rng.choice((5, 7, 9, 11))}) + 2)"
    return _dec(rng, 100, 9000)


def _signed_term(rng: random.Random) -> str:
    leaf = _positive_leaf(rng)
    kind = rng.randrange(4)
    if kind == 0:
        exponent = rng.choice(("2", "3", "(1/2)", "(1/3)", "(-1)", "(3/2)"))
        return f"({leaf})^{exponent}"
    if kind == 1:
        return f"{leaf} / ({_positive_leaf(rng)})"
    if kind == 2:
        return f"cospi({rng.randint(-12, 12)}/{rng.choice((3, 4, 5, 7))}) * {leaf}"
    return leaf


def random_expression(rng: random.Random) -> str:
    """One eval expression from the CLI grammar with a defined value."""
    expr = _signed_term(rng)
    for _ in range(rng.randrange(3)):
        expr = f"{expr} {rng.choice(('+', '-', '*'))} {_signed_term(rng)}"
    return expr


# ---------------------------------------------------------------------------
# the timed pass


class Job:
    """Prepared inputs of one pass and the code that times them."""

    def __init__(self, ops: list, run_op, div_share: float, warm: bool = False):
        self.ops = ops
        self._run_op = run_op
        self._div_share = div_share
        self._warm = warm

    def run(self) -> dict:
        """Time every operation in order; return outputs, latencies (raw and
        scaled to the host's fast-phase speed) and errors."""
        cold = self._loop()
        warm = self._loop() if self._warm else None
        return {
            "outputs": cold["outputs"],
            "latencies": cold["latencies"],
            "scaled": cold["scaled"],
            "errors": cold["errors"] + (warm["errors"] if warm else []),
            "wall_s": cold["wall_s"],
            "scaled_wall_s": cold["scaled_wall_s"],
            "warm_outputs": warm["outputs"] if warm else None,
            "warm_s": warm["wall_s"] if warm else None,
            "warm_scaled_s": warm["scaled_wall_s"] if warm else None,
        }

    def _loop(self) -> dict:
        outputs, latencies, errors = [], [], []
        slowdowns = []  # per operation: the host's (mix, division) slowdowns around its chunk
        division = self._div_share > 0
        hostspeed.slowdowns(division)  # warm-up
        before, chunk_start, chunk_s = hostspeed.slowdowns(division), 0, 0.0
        for i, op in enumerate(self.ops):
            t0 = time.perf_counter()
            try:
                out = self._run_op(op)
            except Exception:  # counted as a failed operation, never hidden
                out = None
                errors.append(traceback.format_exc(limit=3))
            latencies.append(time.perf_counter() - t0)
            outputs.append(out)
            chunk_s += latencies[-1]
            if chunk_s >= hostspeed.CHUNK_S or i == len(self.ops) - 1:
                after = hostspeed.slowdowns(division)
                mean = ((before[0] + after[0]) / 2, (before[1] + after[1]) / 2)
                slowdowns += [mean] * (i + 1 - chunk_start)
                before, chunk_start, chunk_s = after, i + 1, 0.0
        # the reference kernels run between operations, outside every latency
        d = self._div_share
        return {
            "outputs": outputs,
            "latencies": latencies,
            "scaled": [t / mix for t, (mix, _) in zip(latencies, slowdowns)],
            "errors": errors,
            "wall_s": sum(latencies),
            "scaled_wall_s": sum(t / ((1 - d) * mix + d * div) for t, (mix, div) in zip(latencies, slowdowns)),
        }


def prepare(workload: str, spec: dict, catalog) -> Job:
    """Convert generated inputs into thetaval objects (part of set-up)."""
    from thetaval.precision import Ball, PrecCtx

    ctx = PrecCtx(PREC_BITS[workload])
    if workload == "catalog_4096":
        from thetaval import exact

        entries = [catalog.get(i) for i in sorted(catalog.ids())]
        # attributes are looked up at call time, so a traced pass sees the wrappers
        return Job(entries, lambda e: exact.verify_identity(e, ctx), DIV_SHARE[workload], warm=True)
    if workload == "theta_2048":
        from thetaval import qseries

        ops = []
        for call in spec["calls"]:
            if call[0] == "theta_f":
                a = Ball.from_fraction(Fraction(call[1]), ctx.bits)
                b = Ball.from_fraction(Fraction(call[2]), ctx.bits)
                ops.append(("theta_f", (a, b)))
            else:
                ops.append((call[0], (qseries.QPoint(call[1], Fraction(call[2])),)))

        def run_theta(op):
            return getattr(qseries, op[0])(*op[1], ctx)

        return Job(ops, run_theta, DIV_SHARE[workload])
    if workload == "cli_512":
        from thetaval import cli

        def run_cli(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(list(argv))
                except SystemExit as exc:  # argparse rejects a command line
                    rc = exc.code
            return (rc, out.getvalue(), err.getvalue())

        return Job(spec["argv"], run_cli, DIV_SHARE[workload])
    raise ValueError(f"unknown workload {workload!r}")
