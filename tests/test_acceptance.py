"""Acceptance suite: one test per criterion, each printing a pass line.

Every tolerance is pinned here exactly as stated: 100 (or 80/60) decimal
digits of certified agreement at 512 working bits, residual enclosures
containing zero at the listed points, and the wall-clock budget for the
full catalog.  Run with `pytest tests/test_acceptance.py -v -s` to see
the per-criterion lines.
"""

import json
import random
import time
from fractions import Fraction as F

from thetaval.cli import main
from thetaval.exact import (
    Identity,
    build_catalog,
    eval_expr,
    mutate_first_leaf,
    verify_identity,
)
from thetaval.lostnotebook import (
    complete_evaluation,
    compute_p,
    compute_uvw,
    misprint_variant,
    verify_quartic_relation,
)
from thetaval.modular import (
    class_invariant,
    jims_identity,
    multiplier,
    singular_modulus_sq,
    transform,
    triple_from_x,
    verify_degree3,
    verify_degree15,
    yi_product_theorem,
)
from thetaval.precision import (
    Ball,
    PrecCtx,
    agreement_digits,
    ipow,
    pow_rational,
    sqrt,
)
from thetaval.qseries import (
    QPoint,
    as_q_ball,
    chi,
    f_neg,
    f_neg_series,
    phi,
    phi_series,
    pochhammer_inf,
    psi,
    psi_series,
    q_power_ball,
    theta_f,
)

CTX = PrecCtx(512)
E_PI = QPoint(1, F(1))
CATALOG = build_catalog()


def report(n: int, name: str):
    print(f"[acceptance] criterion {n:2d} ({name}): PASS")


def rad_below(ball: Ball, digits: int) -> bool:
    return ball.r * 10**digits < (1 << ball.f)


def test_criterion_01_catalog_completeness(capsys, tmp_path):
    out = tmp_path / "report.json"
    t0 = time.monotonic()
    code = main(["verify", "--all", "--prec", "512", "--out", str(out)])
    single = time.monotonic() - t0
    doc = json.loads(out.read_text())
    assert code == 0
    assert len(doc["entries"]) == 19
    assert all(e["status"] == "verified" for e in doc["entries"])
    assert all(e["agreement_digits"] >= 100 for e in doc["entries"])
    assert single <= 300.0, f"single-threaded run took {single:.1f}s"
    t0 = time.monotonic()
    assert main(["verify", "--all", "--prec", "512", "--jobs", "8", "--out", str(out)]) == 0
    parallel = time.monotonic() - t0
    assert parallel <= 60.0, f"8-job run took {parallel:.1f}s"
    with capsys.disabled():
        report(1, f"catalog completeness, {single:.2f}s single / {parallel:.2f}s x8")


def test_criterion_02_classical_values(capsys):
    for entry_id in ("classical_1", "classical_sqrt2", "classical_2"):
        rep = verify_identity(CATALOG.get(entry_id), CTX)
        assert rep.status == "verified" and rep.agreement_digits >= 100, entry_id
    with capsys.disabled():
        report(2, "classical gamma-function values")


def test_criterion_03_degree3_replay(capsys):
    for q in (F(1, 20), F(1, 10), F(1, 5), F(3, 10), F(2, 5)):
        r1, r2 = verify_degree3(Ball.from_fraction(q, 512), CTX)
        assert r1.contains_zero() and r2.contains_zero(), q
    r1, r2 = verify_degree3(E_PI, CTX)
    assert r1.contains_zero() and r2.contains_zero()
    m2 = ipow(multiplier(E_PI, 3, CTX), 2)
    target = sqrt(Ball.from_fraction(3, 512)) * 6 - 9
    assert m2.overlaps(target)
    assert rad_below(m2, 100) and rad_below(target, 100)
    with capsys.disabled():
        report(3, "degree-3 modular equation replay")


def test_criterion_04_class_invariants(capsys):
    for entry_id in ("g9", "g169"):
        rep = verify_identity(CATALOG.get(entry_id), CTX)
        assert rep.status == "verified" and rep.agreement_digits >= 100, entry_id
    for n in (1, 3, 7, 9):
        alpha = singular_modulus_sq(n, CTX)
        rhs = pow_rational(alpha * (Ball.one(512) - alpha) * 4, F(-1, 24))
        lhs = class_invariant(n, CTX)
        assert lhs.overlaps(rhs)
        assert agreement_digits(lhs, rhs) >= 80, n
    with capsys.disabled():
        report(4, "class invariants")


def test_criterion_05_lost_notebook_pipeline(capsys):
    q7 = QPoint(1, F(1, 7))
    p = compute_p(q7, CTX)
    assert p.contains(1) and rad_below(p, 100)
    result = complete_evaluation(CTX)
    assert result.state.ratio4.contains(7)
    c2, c1, c0 = result.state.cubic
    assert c2.contains(-6) and c1.contains(5) and c0.contains(-1)
    import thetaval.lostnotebook as ln

    for k, root in zip((1, 2, 3), result.roots):
        cos_form = eval_expr(ln._cos_root_expr(k), CTX)
        assert root.overlaps(cos_form), k
    assert result.assignment.alpha.overlaps(eval_expr(ln._cos_root_expr(3), CTX))
    assert result.assignment.beta.overlaps(eval_expr(ln._cos_root_expr(2), CTX))
    assert result.assignment.gamma.overlaps(eval_expr(ln._cos_root_expr(1), CTX))
    assert result.identity.rhs == CATALOG.get("ln7").rhs
    assert result.report.status == "verified" and result.report.agreement_digits >= 100
    misprint = verify_identity(misprint_variant(result.identity), CTX)
    assert misprint.status == "unverified" and misprint.agreement_digits < 5
    with capsys.disabled():
        report(5, "lost-notebook completion pipeline")


def test_criterion_06_septic_relations_grid(capsys):
    for q in (F(1, 10), F(1, 5), F(3, 10), F(2, 5)):
        u, v, w = compute_uvw(q, CTX)
        p = compute_p(q, CTX)
        res_p = p - u * v * w
        fw = 544
        wctx = PrecCtx(fw)
        quot = phi(q_power_ball(q, F(1, 7), fw), wctx) / phi(q**7, wctx)
        res_q = (Ball.one(fw) + u + v + w) - quot
        res_r = verify_quartic_relation(q, CTX)
        for res in (res_p, res_q, res_r):
            assert res.contains_zero(), q
            assert rad_below(res, 80), q
    with capsys.disabled():
        report(6, "septic relations on the nome grid")


def test_criterion_07_degree15_and_yi(capsys):
    for q in (F(3, 20), F(2, 5)):
        assert verify_degree15(Ball.from_fraction(q, 512), CTX).contains_zero()
    assert verify_degree15(QPoint(1, F(1, 15)), CTX).contains_zero()
    for tup in ((2, 1, 6, 2, 3), (3, 1, 1, 1, 1), (5, 2, 2, 4, 1)):
        assert yi_product_theorem(*map(F, tup), CTX).contains_zero(), tup
    for entry_id in ("yi_33", "yi_53", "yi_m6", "yi_2s5", "yi_9"):
        rep = verify_identity(CATALOG.get(entry_id), CTX)
        assert rep.status == "verified" and rep.agreement_digits >= 100, entry_id
    with capsys.disabled():
        report(7, "degree-15 equation and Yi values")


def test_criterion_08_jims_identity(capsys):
    for x in (F(3, 10), F(3, 5), F(9, 10)):
        res = jims_identity(Ball.from_fraction(x, 512), CTX)
        assert res.contains_zero(), x
        assert rad_below(res, 60), x
    with capsys.disabled():
        report(8, "JIMS series identity")


def test_criterion_09_transform_algebra(capsys):
    for x in (F(1, 5), F(1, 2), F(4, 5)):
        t = triple_from_x(Ball.from_fraction(x, 512), CTX)
        rt = transform(transform(t, "dimidiation", CTX), "duplication", CTX)
        assert rt.x.overlaps(t.x) and rt.q.overlaps(t.q) and rt.z.overlaps(t.z), x
        inv = transform(transform(t, "change_of_sign", CTX), "change_of_sign", CTX)
        assert inv.x.overlaps(t.x) and inv.q.overlaps(t.q) and inv.z.overlaps(t.z), x
    t = triple_from_x(Ball.from_fraction(F(1, 2), 512), CTX)
    one = Ball.one(512)
    derived = (sqrt(t.z) * (one + pow_rational(one - t.x, F(1, 4)))).half()
    direct = phi(QPoint(1, F(16)), CTX)
    assert derived.overlaps(direct)
    assert agreement_digits(derived, direct) >= 100
    with capsys.disabled():
        report(9, "duplication / dimidiation / sign algebra")


def test_criterion_10_oracle_equivalence(capsys):
    points = [F(1, 20), F(-1, 20), F(3, 10), F(-3, 10), F(3, 5), F(-3, 5), E_PI, QPoint(1, F(7))]
    for q in points:
        assert phi(q, CTX).overlaps(phi_series(q, CTX)), q
        assert psi(q, CTX).overlaps(psi_series(q, CTX)), q
        assert f_neg(q, CTX).overlaps(f_neg_series(q, CTX)), q
    # the production route is the series: the products are the oracle
    for q in points + [QPoint(-1, F(1)), QPoint(1, F(1, 1000)), QPoint(-1, F(7, 3))]:
        qb = as_q_ball(q, CTX.bits + 32)
        q2 = qb * qb
        chi_prod = pochhammer_inf(-qb, q2, CTX)
        q2q2 = pochhammer_inf(q2, q2, CTX)
        assert phi(q, CTX).overlaps(chi_prod * chi_prod * q2q2), q
        assert psi(q, CTX).overlaps(q2q2 / pochhammer_inf(qb, q2, CTX)), q
        assert f_neg(q, CTX).overlaps(pochhammer_inf(qb, qb, CTX)), q
        assert chi(q, CTX).overlaps(chi_prod), q
    rng = random.Random(20260809)
    ctx = PrecCtx(192)
    checked = 0
    while checked < 20:
        a = F(rng.randint(-900, 900), 1000)
        b = F(rng.randint(-900, 900), 1000)
        if abs(a * b) > F(4, 5):
            continue
        ba, bb = Ball.from_fraction(a, 192), Ball.from_fraction(b, 192)
        series = theta_f(ba, bb, ctx)
        ab = ba * bb
        product = (
            pochhammer_inf(-ba, ab, ctx)
            * pochhammer_inf(-bb, ab, ctx)
            * pochhammer_inf(ab, ab, ctx)
        )
        assert series.overlaps(product), (a, b)
        checked += 1
    with capsys.disabled():
        report(10, "series vs product oracle equivalence")


def test_criterion_11_cross_form_consistency(capsys):
    prod = eval_expr(CATALOG.get("r9").lhs, CTX) * eval_expr(CATALOG.get("yi_9").lhs, CTX)
    target = Ball.one(512) / sqrt(Ball.from_fraction(3, 512))
    assert prod.overlaps(target)
    assert agreement_digits(prod, target) >= 100
    combined = eval_expr(CATALOG.get("cb27").rhs, CTX) * eval_expr(CATALOG.get("r3").rhs, CTX)
    direct = phi_series(QPoint(1, F(729)), CTX) / phi_series(E_PI, CTX)
    assert combined.overlaps(direct)
    assert agreement_digits(combined, direct) >= 80
    with capsys.disabled():
        report(11, "cross-form consistency")


def test_criterion_12_mutation_sensitivity(capsys):
    for entry in CATALOG.entries:
        mutated = Identity(
            entry.id + "_mut", entry.lhs, mutate_first_leaf(entry.rhs), entry.provenance
        )
        rep = verify_identity(mutated, CTX)
        assert rep.status == "unverified", entry.id
    with capsys.disabled():
        report(12, "mutation sensitivity of every entry")
