"""Expression-tree and catalog tests: evaluation, rendering, verification,
mutation sensitivity, and the cross-form consistency checks."""

import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, reject, settings, strategies as st

from thetaval import exact, precision
from thetaval.errors import (
    DivisorStraddlesZero,
    DomainError,
    EnclosureReachesBoundary,
    ParseError,
    Undecided,
    UnsupportedGammaArgument,
)
from thetaval.exact import (
    Add,
    Catalog,
    ClassInv,
    CosPiRat,
    Div,
    GammaRat,
    Identity,
    Int,
    Mul,
    Neg,
    Pi,
    PowRat,
    Rat,
    Sub,
    Phi,
    ThetaExpr,
    build_catalog,
    eval_expr,
    eval_theta,
    mutate_first_leaf,
    parse_expr,
    render_expr,
    verify_identity,
)
from thetaval.precision import Ball, PrecCtx, ipow, sqrt
from thetaval.qseries import QPoint, phi_series

CTX = PrecCtx(256)
CATALOG = build_catalog()


def bf(x, f=256):
    return Ball.from_fraction(F(x), f)


class TestEvalExpr:
    def test_rational_is_exact(self):
        val = eval_expr(Rat(F(3, 4)), CTX)
        assert val.contains(F(3, 4)) and val.rad == 0

    def test_cospi_exact_third(self):
        assert eval_expr(CosPiRat(F(1, 3)), CTX).contains(F(1, 2))

    def test_cospi_generic(self):
        import mpmath as mp

        mp.mp.dps = 50
        val = eval_expr(CosPiRat(F(2, 7)), CTX)
        ref = F(str(mp.nstr(mp.cos(2 * mp.pi / 7), 40, strip_zeros=False)))
        assert abs(val.mid - ref) < F(1, 10**38)

    # every branch of the exact reduction to |s| <= 1/4: both signs, past the
    # period, each side of 1/4, 1/2 and 3/4, and the rational values
    @pytest.mark.parametrize("t", sorted({F(k, 7) for k in range(-15, 16)} | {F(k, 12) for k in range(-25, 26)}))
    def test_cospi_against_mpmath_in_every_octant(self, t):
        import mpmath as mp

        with mp.workprec(600):
            ref = mp.cos(mp.pi * mp.mpf(t.numerator) / t.denominator)
        val = eval_expr(CosPiRat(t), CTX)
        ref = F(mp.nstr(ref, 170, strip_zeros=False))
        assert abs(val.mid - ref) <= val.rad + F(1, 10**160) and val.rad <= F(2) ** (1 - CTX.bits)

    # pi/d and s pi are built from the pi that cos and sin read, so a cold cospi
    # takes one, also where the working scale nears the top of a 256-bit bucket
    @pytest.mark.parametrize("bits", [512, 4248])
    @pytest.mark.parametrize("t", [F(1, 7), F(100, 201)])
    def test_cospi_reads_pi_at_one_scale(self, t, bits, cold_caches):
        eval_expr(CosPiRat(t), PrecCtx(bits))
        assert precision._pi_bucket.cache_info().misses == 1

    # n up to d/2 after the reduction: T_n(cos(pi/d)) below n = 8, one cos from there
    @pytest.mark.parametrize("bits", [512, 4096])
    @pytest.mark.parametrize("d", [*range(3, 14), 1000, 10**6])
    def test_cospi_against_mpmath_within_two_units(self, d, bits):
        import mpmath as mp

        if d < 14:
            ns = range(1 - 2 * d, 2 * d)
        else:
            ns = [1 - 2 * d, -d - 1, -d + 1, -d // 2 - 1, -3, -1, 1, 2, d // 3, d // 2 - 1, d // 2 + 1, d - 7, 2 * d - 1]
        ctx, scale = PrecCtx(bits), 2 ** (bits + 72)
        for n in ns:
            val = eval_expr(CosPiRat(F(n, d)), ctx)
            with mp.workprec(bits + 96):
                ref = F(int(mp.nint(mp.cos(mp.pi * n / d) * scale)), scale)
            assert abs(val.mid - ref) <= val.rad + F(1, 2 ** (bits + 70)), (n, d)
            assert val.f == bits and val.r <= 2, (n, d, val.r)

    def test_cospi_of_ln7_reads_one_cosine(self, cold_caches):
        # cos(k pi/7), k = 1, 2, 3, all at 20 guard bits: one cos(pi/7)
        for k in (1, 2, 3):
            eval_expr(CosPiRat(F(k, 7)), PrecCtx(4096))
        assert exact._unit_cos.cache_info().misses == 1

    def test_cospi_of_a_long_numerator_takes_one_cos_without_the_ladder(self, cold_caches):
        # n = 5 10^39 after the reduction: the ladder would take 132 steps
        import mpmath as mp

        t = F(10**40 + 1, 2 * 10**40 + 3)
        val = eval_expr(CosPiRat(t), PrecCtx(512))
        with mp.workprec(700):
            ref = mp.cos(mp.pi * t.numerator / t.denominator)
            ref = F(int(ref.man)) * F(2) ** int(ref.exp)
        assert val.contains(ref) and val.f == 512 and val.r <= 2
        assert exact._unit_cos.cache_info().misses == 0

    def test_g9_sixth_power_difference(self):
        g9 = CATALOG.get("g9").rhs
        val = eval_expr(g9, CTX)
        diff = ipow(val, 6) - ipow(val, -6)
        assert diff.overlaps(sqrt(bf(3)) * 2)

    def test_operator_sugar(self):
        # the infix operators of the text grammar
        e = parse_expr("(1 + 2) * 3 / 9 - 1")
        assert e == Sub(Div(Mul(Add(Int(1), Int(2)), Int(3)), Int(9)), Int(1))
        assert eval_expr(e, CTX).contains(0)
        assert eval_expr(parse_expr("-5"), CTX).contains(-5)
        assert parse_expr("2^(-1/2)") == PowRat(Int(2), F(-1, 2))
        assert eval_expr(parse_expr("2^(-1/2)"), CTX).overlaps(1 / sqrt(bf(2)))

    def test_division_by_zero_enclosure(self):
        # an exact zero is refused at once; a ball straddling zero is undecided
        with pytest.raises(DomainError) as exc:
            eval_expr(Div(Int(1), Sub(Int(1), Int(1))), CTX)
        assert not isinstance(exc.value, Undecided)
        with pytest.raises(DivisorStraddlesZero):
            eval_expr(Div(Int(1), Sub(Pi(), Pi())), CTX)

    def test_negative_even_root(self):
        # an exact base <= 0, or one strictly below 0, is refused at once; an
        # inexact one that reaches 0 is undecided
        for base in (Sub(Int(1), Int(3)), Int(0), Sub(Pi(), Int(4))):
            with pytest.raises(DomainError) as exc:
                eval_expr(PowRat(base, F(1, 2)), CTX)
            assert not isinstance(exc.value, Undecided)
        with pytest.raises(EnclosureReachesBoundary):
            eval_expr(PowRat(Sub(Pi(), Pi()), F(1, 2)), CTX)

    def test_gamma_domain(self):
        with pytest.raises(UnsupportedGammaArgument):
            eval_expr(GammaRat(F(5, 2)), CTX)

    def test_gamma_value(self):
        assert eval_expr(GammaRat(F(1, 2)), CTX).overlaps(sqrt(eval_expr(Pi(), CTX)))


class TestCatalog:
    def test_size_and_ids(self):
        assert len(CATALOG) == 19
        assert len(set(CATALOG.ids())) == 19
        expected = {
            "classical_1",
            "classical_sqrt2",
            "classical_2",
            "r5",
            "r3",
            "r7",
            "r9",
            "r45",
            "cb13",
            "cb27",
            "cb63",
            "yi_33",
            "yi_53",
            "yi_m6",
            "yi_2s5",
            "yi_9",
            "ln7",
            "g9",
            "g169",
        }
        assert set(CATALOG.ids()) == expected

    def test_provenance_present(self):
        assert all(e.provenance for e in CATALOG.entries)

    def test_duplicate_ids_rejected(self):
        e = CATALOG.entries[0]
        with pytest.raises(ValueError):
            Catalog((e, e))

    def test_r3_fourth_power_reciprocal(self):
        rhs = eval_expr(CATALOG.get("r3").rhs, CTX)
        assert ipow(rhs, -4).overlaps(sqrt(bf(3)) * 6 - 9)

    def test_json_export_schema(self):
        entries = CATALOG.json_entries()
        assert len(entries) == 19
        for e in entries:
            assert set(e) == {"id", "lhs_text", "rhs_text", "provenance"}
            assert e["rhs_text"] and e["lhs_text"]

    def test_rendered_rhs_parses_and_evaluates(self):
        # the export grammar round-trips through the parser to the same tree
        for entry in CATALOG.entries:
            assert parse_expr(render_expr(entry.rhs)) == entry.rhs, entry.id

    def test_rendered_lhs_parses_and_evaluates(self):
        for entry in CATALOG.entries:
            assert parse_expr(render_expr(entry.lhs)) == entry.lhs, entry.id

    def test_sides_are_closed_forms_and_theta_values(self):
        # a theta value on a right side would let an entry verify trivially
        open_nodes = (ThetaExpr, exact.Nome, exact.Agm, exact.Hyp)
        for entry in CATALOG.entries:
            assert not any(isinstance(n, open_nodes) for n in subtrees(entry.rhs)), entry.id
            assert any(isinstance(n, ThetaExpr) for n in subtrees(entry.lhs)), entry.id

    def test_left_sides_use_the_shared_nodes(self):
        yi_33 = CATALOG.get("yi_33").lhs
        assert yi_33 == Div(
            Phi(QPoint(1, F(3))), Mul(PowRat(Int(3), F(1, 4)), Phi(QPoint(1, F(27))))
        )
        r7 = CATALOG.get("r7").lhs
        assert r7 == PowRat(Div(Phi(QPoint(1, F(49))), Phi(QPoint(1, F(1)))), F(2))


class TestVerify:
    def test_classical_1_hundred_digits(self):
        rep = verify_identity(CATALOG.get("classical_1"), PrecCtx(512))
        assert rep.status == "verified" and rep.agreement_digits >= 100

    def test_low_precision_escalates_once(self):
        rep = verify_identity(CATALOG.get("r3"), PrecCtx(256))
        assert rep.status == "verified"
        assert rep.prec_bits_used == 512  # 256-bit radii sit above 1e-100

    def test_corrupted_yi9_fails_badly(self):
        # flip the sign of the last cube-root term of yi_9
        good = CATALOG.get("yi_9")
        assert isinstance(good.rhs, Sub)
        corrupted = Identity(
            "yi_9_corrupt", good.lhs, Add(good.rhs.left, good.rhs.right), good.provenance
        )
        rep = verify_identity(corrupted, PrecCtx(512))
        assert rep.status == "unverified" and rep.agreement_digits < 5

    def test_disjoint_identity_fails_without_escalation(self):
        bogus = Identity("bogus", Phi(QPoint(1, F(1))), Int(2), "test")
        rep = verify_identity(bogus, PrecCtx(256))
        assert rep.status == "unverified" and rep.prec_bits_used == 256

    @pytest.mark.parametrize("bits, digits", [(512, 153), (2048, 616), (4096, 1232), (8192, 2465)])
    def test_every_entry_verifies_at_its_bits_with_pinned_digits(self, bits, digits):
        # pins the outcomes of the constants' routes (Gamma by the AGM, pi by
        # Chudnovsky): their enclosures may move in the last units, no outcome
        for entry in CATALOG.entries:
            rep = verify_identity(entry, PrecCtx(bits))
            assert rep.status == "verified" and rep.prec_bits_used == bits, entry.id
            assert rep.agreement_digits >= digits, (entry.id, rep.agreement_digits)


class TestMutation:
    def test_mutate_changes_value(self):
        e = CATALOG.get("r9").rhs
        mutated = mutate_first_leaf(e)
        assert mutated != e
        delta = eval_expr(mutated, CTX) - eval_expr(e, CTX)
        assert not delta.contains_zero()

    def test_mutated_tree_round_trips_through_its_text(self):
        # the mutated first leaf of r3 is the Rat 6000001/1000000, printed 6.000001
        mutated = mutate_first_leaf(CATALOG.get("r3").rhs)
        text = render_expr(mutated)
        assert "6.000001" in text
        assert parse_expr(text) == mutated

    @pytest.mark.parametrize(
        "v,text",
        [
            (F(1, 2), "0.5"),
            (F(3, 8), "0.375"),
            (F(1, 1024), "0.0009765625"),
            (F(123, 5), "24.6"),
            (F(7, 3), "(7/3)"),
            (F(1, 96), "(1/96)"),
            (F(-1, 2), "(-1/2)"),
        ],
    )
    def test_rat_leaf_text(self, v, text):
        # a decimal denominator prints as the literal that parses to the same Rat
        assert render_expr(Rat(v)) == text
        if "." in text:
            assert parse_expr(text) == Rat(v)

    @pytest.mark.parametrize(
        "text, mutated",
        [
            ("phi(qpoint(+1, 2)) * 3", "(phi(qpoint(+1, 2)) * 3.000001)"),
            ("f(0.5, 2^(1/2))", "f(0.500001, 2^(1/2))"),
            ("agm(pi, pi^2)", "agm(pi, pi^(2000001/1000000))"),
            ("hprime(2, 3)", "hprime(2000001/1000000, 3)"),
        ],
    )
    def test_mutation_walks_the_fields_of_every_node_kind(self, text, mutated):
        # a QPoint nome is no rational leaf; the first one after it is
        assert render_expr(mutate_first_leaf(parse_expr(text))) == mutated

    def test_mutation_flips_two_sample_entries(self):
        for entry_id in ("r3", "g9"):
            entry = CATALOG.get(entry_id)
            bad = Identity(
                entry.id + "_mut",
                entry.lhs,
                mutate_first_leaf(entry.rhs),
                entry.provenance,
            )
            rep = verify_identity(bad, PrecCtx(512))
            assert rep.status == "unverified"


def test_precision_monotonicity_all_entries():
    # agreement digits never drop when the working precision grows
    for entry in CATALOG.entries:
        digits = [
            verify_identity(entry, PrecCtx(bits)).agreement_digits
            for bits in (256, 512, 1024)
        ]
        assert digits[0] <= digits[1] <= digits[2], (entry.id, digits)
        assert digits[2] >= 290, (entry.id, digits)


def subtrees(e) -> list:
    """Every expression node under e, repeats included."""
    out = [e]
    for name in e._fields:
        child = getattr(e, name)
        if isinstance(child, exact.Expr):
            out += subtrees(child)
    return out


# catalog ids, and texts whose theta leaves share a subtree with the tree
# around them: a nome, or an argument of f
SHARED_SUBTREE_CASES = [
    "cb13",
    "cb63",
    "g169",
    "ln7",
    "phi(0.5^(1/2)) + 0.5^(1/2)",
    "f(0.3, 0.2) * 0.3",
    "psi(0.1) / chi(0.1)",
]


def spy_computed(monkeypatch) -> list:
    """Record each (subtree, bits) that `_eval_raw` computes: a cache miss."""
    computed, raw = [], exact._eval_raw

    def spy(e, bits):  # the miss is counted before the subtrees are read
        misses = raw.cache_info().misses
        val = raw(e, bits)
        if raw.cache_info().misses > misses:
            computed.append((e, bits))
        return val

    monkeypatch.setattr(exact, "_eval_raw", spy)
    return computed


@pytest.mark.parametrize("entry_id", SHARED_SUBTREE_CASES)
def test_shared_subtrees_are_evaluated_once_per_call(monkeypatch, entry_id):
    # after a clear the first call computes each distinct subtree once, and a
    # second call computes none
    catalog = entry_id in CATALOG.ids()
    rhs = CATALOG.get(entry_id).rhs if catalog else parse_expr(entry_id)
    exact._eval_raw.cache_clear()
    computed = spy_computed(monkeypatch)
    val = eval_expr(rhs, PrecCtx(512))
    assert len(computed) == len(set(computed)) == len(set(subtrees(rhs)))
    computed.clear()
    again = eval_expr(rhs, PrecCtx(512))
    assert computed == [] and (again.m, again.r, again.f) == (val.m, val.r, val.f)
    if catalog:
        assert val.overlaps(verify_identity(CATALOG.get(entry_id), PrecCtx(512)).rhs)


@pytest.mark.parametrize("entry_id", ["cb13", "ln7", "g169"])
def test_an_equal_but_distinct_tree_is_all_hits(entry_id):
    text = exact._CATALOG_ROWS[CATALOG.ids().index(entry_id)][2]
    exact._eval_raw.cache_clear()
    first = eval_expr(parse_expr(text), PrecCtx(512))
    before = exact._eval_raw.cache_info()
    again = eval_expr(parse_expr(text), PrecCtx(512))
    after = exact._eval_raw.cache_info()
    assert after.misses == before.misses and after.hits > before.hits
    assert (again.m, again.r, again.f) == (first.m, first.r, first.f)


@pytest.mark.parametrize("text", ["agm(1/10^300, 1)", "hyp(1/10^300)"])
def test_a_value_after_an_undecided_attempt_is_that_of_a_fresh_process(text):
    # the 544-bit attempt is undecided and leaves its decided subtrees cached;
    # the 1056-bit one succeeds with the ball a fresh interpreter computes
    val = eval_expr(parse_expr(text), PrecCtx(512))
    code = (
        "from thetaval.exact import eval_expr, parse_expr\n"
        "from thetaval.precision import PrecCtx\n"
        f"v = eval_expr(parse_expr({text!r}), PrecCtx(512))\n"
        "print(v.m, v.r, v.f)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == [str(val.m), str(val.r), str(val.f)]


# one tree of each node kind and the text it prints as
RENDERED = [
    (PowRat(Int(2), F(3)), "2^3"),
    (PowRat(Pi(), F(-1, 2)), "pi^(-1/2)"),
    (PowRat(Add(Int(1), Int(2)), F(1, 3)), "((1 + 2))^(1/3)"),
    (PowRat(Int(-2), F(3)), "(-2)^3"),
    (Sub(Mul(Int(1), Rat(F(1, 4))), Div(Int(3), Neg(Int(4)))), "((1 * 0.25) - (3 / (-4)))"),
    (Add(GammaRat(F(1, 4)), CosPiRat(F(-2, 7))), "(gamma(1/4) + cospi(-2/7))"),
    (exact.Nome(QPoint(1, F(5, 3))), "qpoint(+1, 5/3)"),
    (exact.Nome(QPoint(-1, F(36))), "qpoint(-1, 36)"),
    (Phi(QPoint(1, F(9))), "phi(qpoint(+1, 9))"),
    (Phi(Mul(Rat(F(1, 2)), exact.Nome(QPoint(1, F(1))))), "phi((0.5 * qpoint(+1, 1)))"),
    (exact.Psi(Rat(F(1, 10))), "psi(0.1)"),
    (exact.FNeg(Neg(Rat(F(3, 10)))), "fneg((-0.3))"),
    (exact.Chi(QPoint(-1, F(2))), "chi(qpoint(-1, 2))"),
    (exact.ThetaF(Rat(F(1, 5)), Rat(F(3, 10))), "f(0.2, 0.3)"),
    (exact.YiH(F(3), F(9)), "h(3, 9)"),
    (exact.YiHPrime(F(2), F(3, 2)), "hprime(2, 3/2)"),
    (ClassInv(F(169)), "classinv(169)"),
    (exact.Agm(Int(1), PowRat(Int(2), F(1, 2))), "agm(1, 2^(1/2))"),
    (exact.Hyp(Rat(F(7, 3))), "hyp((7/3))"),
]


@pytest.mark.parametrize("tree, text", RENDERED, ids=[text for _, text in RENDERED])
def test_each_node_kind_renders_to_its_pinned_text(tree, text):
    assert render_expr(tree) == text
    if isinstance(tree, ThetaExpr):
        assert exact.render_theta(tree) == text


# the function leaves that `Function._ball` evaluates, by a text and its kernel
GENERIC_LEAVES = {
    "gamma(1/3)": "gamma_rational",
    "agm(1, 2^(1/2))": "agm",
    "phi(qpoint(+1, 2))": "phi",
    "psi(0.1)": "psi",
    "fneg((-0.3))": "f_neg",
    "chi(qpoint(-1, 2))": "chi",
    "f(0.2, 0.3)": "theta_f",
    "classinv(169)": "class_invariant",
}


def test_each_function_names_a_kernel_of_this_module_or_defines_its_own_ball():
    generic = set()
    for name, node in exact._FUNCTIONS.items():
        if node._ball is exact.Function._ball:
            assert callable(getattr(exact, node.kernel, None)), name
            generic.add(name)
        else:
            assert node.kernel == "", name
    assert generic == {parse_expr(text).name for text in GENERIC_LEAVES}


@pytest.mark.parametrize("text, kernel", GENERIC_LEAVES.items(), ids=list(GENERIC_LEAVES))
def test_a_leaf_reaches_its_kernel_by_name_once_at_the_working_bits(monkeypatch, cold_caches, text, kernel):
    calls, real = [], getattr(exact, kernel)
    monkeypatch.setattr(exact, kernel, lambda *args: calls.append(args) or real(*args))
    tree, ctx = parse_expr(text), PrecCtx(512)
    eval_expr(tree, ctx)
    assert len(calls) == 1 and calls[0][-1] == ctx.work()
    for field, arg in zip(tree._values(), calls[0]):  # an Expr as its ball, any other as it is
        assert arg is field if not isinstance(field, exact.Expr) else isinstance(arg, Ball)


def test_a_qpoint_nome_keys_the_theta_cache_exactly(cold_caches):
    from thetaval import qseries

    ctx = PrecCtx(512)
    val = eval_expr(parse_expr("phi(qpoint(+1, 2))"), ctx)
    info = qseries._theta_exact.cache_info()
    assert info.currsize == 1
    again = qseries.phi(QPoint(1, F(2)), ctx.work())
    assert qseries._theta_exact.cache_info().hits == info.hits + 1
    assert again.rescale(ctx.bits).overlaps(val)


def test_a_failed_call_caches_no_entry_for_the_failing_node():
    tree = Div(Add(Int(1), Int(2)), Sub(Pi(), Pi()))
    with pytest.raises(DivisorStraddlesZero):
        eval_expr(tree, CTX)
    before = exact._eval_raw.cache_info()
    with pytest.raises(DivisorStraddlesZero):
        exact._eval_raw(tree, CTX.work().bits)
    after = exact._eval_raw.cache_info()
    # the division is computed again; its two operands are read from the cache
    assert (after.misses, after.hits) == (before.misses + 1, before.hits + 2)
    assert after.currsize == before.currsize


# records: immutable, equal by class and fields, hashed once, rebuilt by pickle


@pytest.mark.parametrize(
    "record, field",
    [
        (parse_expr("gamma(1/4)^2 / pi"), "left"),
        (QPoint(1, F(2)), "r"),
        (PrecCtx(512), "bits"),
        (CATALOG.get("r3"), "lhs"),
    ],
    ids=["expr", "qpoint", "precctx", "identity"],
)
def test_a_record_field_cannot_be_assigned(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, Int(0))
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


def test_a_record_takes_each_field_once_by_position_or_name():
    assert Add(Int(1), right=Int(2)) == Add(left=Int(1), right=Int(2)) == Add(Int(1), Int(2))
    for args, named in [((Int(1),), {}), ((Int(1),) * 3, {}), ((Int(1),), {"rihgt": Int(2)})]:
        with pytest.raises(TypeError):
            Add(*args, **named)


# int() refuses a string of more digits than this, unless it is 0
INT_DIGITS = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
LONG_LITERAL = "1" * (INT_DIGITS + 1)

# every ParseError site, one text each (more for a site with several
# messages): (text, message, position)
PARSE_ERRORS = [
    ("2 $ 3", "unexpected character '$'", 2),  # _Parser.error, before any other error
    ("é", "unexpected character 'é'", 0),
    ("3 .", "unexpected character '.'", 2),
    ("1 2 $", "unexpected character '$'", 4),
    ("gamma(1/0) + #", "unexpected character '#'", 13),
    ("(1 + 2", "expected ')'", 6),  # _Parser.expect
    ("phi(1", "expected ')'", 5),
    ("1 2", "unexpected trailing input '2'", 2),  # _Parser.parse
    ("1 + 2 )", "unexpected trailing input ')'", 6),
    ("(" * 101 + "1" + ")" * 101, "expression nested deeper than 100 levels", 100),  # _TOO_DEEP
    ("-" * 101 + "1", "expression nested deeper than 100 levels", 100),
    ("2^pi", "exponent must be a rational constant", 2),  # _Parser.unary
    ("2^(-pi)", "exponent must be a rational constant", 2),  # _const_value's Neg
    ("2^(pi^2)", "exponent must be a rational constant", 2),  # and PowRat of a non-constant
    ("1 +", "expected a value", 3),
    ("2 +* 3", "expected a value", 3),
    ("", "expected a value", 0),
    ("foo(1)", "unknown name 'foo'", 0),  # _Parser.call
    ("cospi(x)", "unknown name 'x'", 6),
    ("phi(1, 2)", "phi takes 1 argument(s)", 0),
    ("h(1)", "h takes 2 argument(s)", 0),
    ("f(0.1)", "f takes 2 argument(s)", 0),
    ("qpoint(2, 1)", "qpoint sign must be +1 or -1", 0),
    ("qpoint(+1, -3)", "qpoint r must be a positive rational", 0),
    ("qpoint(+1, pi)", "qpoint r must be a positive rational", 0),
    ("gamma(pi)", "gamma needs a rational argument", 0),
    ("1/0 + gamma(1/0)", "division by zero in a constant", 6),  # _Parser.fold
    ("2^(1/0)", "division by zero in a constant", 2),
    (
        "gamma(2^(10^30))",
        "a power of magnitude up to 2^(2^99.7) passes the limit of 2^32768 at 512 bits",
        0,
    ),
    # errors inside nested constructs, and at the end of the text
    ("phi(qpoint(+1, 2^(1/0)))", "division by zero in a constant", 17),
    ("f(1, )", "expected a value", 5),
    ("cospi(1/7", "expected ')'", 9),
    ("1 +  \t", "expected a value", 6),
    # a numeric literal past int()'s digit limit (_Parser.unary)
    (LONG_LITERAL, f"number has more than {INT_DIGITS} digits", 0),
    ("2 * 0." + LONG_LITERAL, f"number has more than {INT_DIGITS} digits", 4),
]


@pytest.mark.parametrize("text, message, pos", PARSE_ERRORS, ids=[t[:12] for t, _, _ in PARSE_ERRORS])
def test_each_parse_error_site_keeps_its_message_and_position(text, message, pos):
    if message.startswith("number has more than") and not INT_DIGITS:
        pytest.skip("int() takes a string of any length here")
    with pytest.raises(ParseError) as info:
        parse_expr(text)
    assert (info.value.message, info.value.pos) == (message, pos)
    assert str(info.value) == f"{message} (at position {pos})"


# the deepest text of each nesting kind that parses, and the first one
# refused: (deepest, refused, position of the refusal)
DEPTH_LIMITS = {
    "parentheses": ("(" * 99 + "1" + ")" * 99, "(" * 100 + "1" + ")" * 100, 100),
    "signs": ("-" * 99 + "1", "-" * 100 + "1", 100),
    "exponents": ("1" + "^1" * 99, "1" + "^1" * 100, 200),
    "calls": ("phi(" * 99 + "1" + ")" * 99, "phi(" * 100 + "1" + ")" * 100, 400),
    "a + chain": ("1" + "+1" * 99, "1" + "+1" * 100, 199),
    # a chain of 100 levels one level deeper: negated, raised and as an argument
    "a negated chain": ("-(1" + "+1" * 98 + ")", "-(1" + "+1" * 99 + ")", 0),
    "a raised chain": ("(1" + "+1" * 98 + ")^2", "(1" + "+1" * 99 + ")^2", 201),
    "a chain in a call": ("phi(1" + "+1" * 98 + ")", "phi(1" + "+1" * 99 + ")", 0),
}


@pytest.mark.parametrize("deepest, refused, pos", DEPTH_LIMITS.values(), ids=DEPTH_LIMITS)
def test_each_nesting_kind_stops_at_max_depth(deepest, refused, pos):
    assert isinstance(parse_expr(deepest), exact.Expr)
    with pytest.raises(ParseError) as info:
        parse_expr(refused)
    assert (info.value.message, info.value.pos) == (f"expression nested deeper than {exact.MAX_DEPTH} levels", pos)


# how the grammar binds and groups, which no rendered text shows, since
# `render_expr` parenthesizes every infix node: (text, tree)
PRECEDENCE = [
    ("1 - 2 - 3", Sub(Sub(Int(1), Int(2)), Int(3))),
    ("8 / 4 / 2", Div(Div(Int(8), Int(4)), Int(2))),
    ("1 + 2 * 3", Add(Int(1), Mul(Int(2), Int(3)))),
    ("1 * 2 - 3 / 4 + 5", Add(Sub(Mul(Int(1), Int(2)), Div(Int(3), Int(4))), Int(5))),
    ("(1 + 2) * 3", Mul(Add(Int(1), Int(2)), Int(3))),
    ("2^3^2", PowRat(Int(2), F(9))),
    ("2^(1/2)^2", PowRat(Int(2), F(1, 4))),
    ("-2^2", Neg(PowRat(Int(2), F(2)))),
    ("2^-1", PowRat(Int(2), F(-1))),
    ("- -1", Neg(Neg(Int(1)))),
    ("+1", Int(1)),
    ("+-+1", Neg(Int(1))),
    ("2 * -3", Mul(Int(2), Neg(Int(3)))),
    ("-pi * 2", Mul(Neg(Pi()), Int(2))),
    ("2.50 + .5 - 3.", Sub(Add(Rat(F(5, 2)), Rat(F(1, 2))), Int(3))),
]


@pytest.mark.parametrize("text, tree", PRECEDENCE, ids=[text for text, _ in PRECEDENCE])
def test_precedence_and_associativity(text, tree):
    assert parse_expr(text) == tree and repr(parse_expr(text)) == repr(tree)


_int_texts = st.recursive(
    st.integers(0, 9).map(str),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(" ".join),
        st.tuples(st.sampled_from("+-"), inner).map("".join),
        st.tuples(inner, st.integers(-2, 2)).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(inner, st.integers(-2, 2), st.integers(0, 2)).map(lambda t: f"({t[0]})^{t[1]}^{t[2]}"),
        inner.map("({})".format),
    ),
    max_leaves=6,
)


@given(text=_int_texts)
@settings(max_examples=300, deadline=None)
def test_int_texts_fold_to_the_value_python_gives_them(text):
    """The folded value of an int text is Python's value of the same text,
    with ^ as ** and each int a Fraction: both languages bind and group alike.
    Every exponent is an integer, so the value is a Fraction."""
    python_text = re.sub(r"\d+", r"Fraction(\g<0>)", text).replace("^", "**")
    try:
        folded = parse_expr(f"classinv({text})")
    except ParseError as exc:
        if exc.message.startswith("a power of magnitude"):
            reject()  # past the folding limit at 512 bits, and too big to eval
        assert exc.message == "division by zero in a constant"
        with pytest.raises(ZeroDivisionError):
            eval(python_text, {"Fraction": F})
        return
    assert folded == ClassInv(eval(python_text, {"Fraction": F}))


# the TypeErrors of a record built with a missing field, an extra value or
# an unknown keyword: (class, values, keywords, message)
RECORD_ERRORS = [
    (Add, (Int(1),), {}, "Add takes exactly the fields ('left', 'right')"),
    (Add, (Int(1),) * 3, {}, "Add takes exactly the fields ('left', 'right')"),
    (Add, (), {}, "Add takes exactly the fields ('left', 'right')"),
    (Add, (Int(1),), {"rihgt": Int(2)}, "Add needs the field 'right'"),
    (Add, (Int(1),), {"left": Int(2)}, "Add needs the field 'right'"),
    (Add, (Int(1), Int(2)), {"rihgt": 3}, "Add takes exactly the fields ('left', 'right')"),
    (Add, (), {"left": Int(1), "right": Int(2), "x": 1}, "Add takes exactly the fields ('left', 'right')"),
    (Pi, (1,), {}, "Pi takes exactly the fields ()"),
    (Pi, (), {"x": 1}, "Pi takes exactly the fields ()"),
    (Identity, ("a", Int(1), Int(2)), {}, "Identity takes exactly the fields ('id', 'lhs', 'rhs', 'provenance')"),
    (exact.YiH, (F(1),), {}, "YiH takes exactly the fields ('k', 'n')"),
    (Catalog, (), {}, "Catalog.__init__() missing 1 required positional argument: 'entries'"),
    (PrecCtx, (64, 65), {}, "PrecCtx.__init__() takes from 1 to 2 positional arguments but 3 were given"),
    (PrecCtx, (), {"bitz": 64}, "PrecCtx.__init__() got an unexpected keyword argument 'bitz'"),
    (precision.WorkCtx, (96, 1), {}, "PrecCtx.__init__() takes from 1 to 2 positional arguments but 3 were given"),
    (QPoint, (1,), {}, "QPoint.__init__() missing 1 required positional argument: 'r'"),
    (QPoint, (1, 2, 3), {}, "QPoint.__init__() takes 3 positional arguments but 4 were given"),
    (QPoint, (), {"sign": 1, "r": 2, "x": 3}, "QPoint.__init__() got an unexpected keyword argument 'x'"),
    (exact.YiHPrime, (F(1), F(2), True), {}, "YiHPrime takes exactly the fields ('k', 'n')"),
]


@pytest.mark.parametrize(
    "cls, values, named, message", RECORD_ERRORS, ids=[f"{c.__name__}-{i}" for i, (c, *_) in enumerate(RECORD_ERRORS)]
)
def test_each_record_constructor_error_keeps_its_text(cls, values, named, message):
    with pytest.raises(TypeError) as info:
        cls(*values, **named)
    assert str(info.value) == message


@pytest.mark.parametrize("row", exact._CATALOG_ROWS, ids=lambda row: row[0])
def test_two_parses_of_one_text_are_equal_and_hash_alike(row):
    for text in row[1:3]:
        a, b = parse_expr(text), parse_expr(text)
        assert a is not b and a == b and hash(a) == hash(b)


def test_a_record_repr_names_each_field():
    assert repr(parse_expr("gamma(1/4)^2 / pi")) == (
        "Div(left=PowRat(base=GammaRat(arg=Fraction(1, 4)), exponent=Fraction(2, 1)),"
        " right=Pi())"
    )


def test_a_leaf_is_hashed_once_however_often_its_tree_keys_the_memo():
    hashes = []

    class CountedFraction(F):
        def __hash__(self):
            hashes.append(self)
            return super().__hash__()

    tree = Div(Add(Rat(CountedFraction(1, 3)), Pi()), Mul(Int(7), Pi()))
    for bits in (128, 256, 256):
        eval_expr(tree, PrecCtx(bits))
    verify_identity(Identity("counted", tree, tree, "test"), CTX)
    assert len(hashes) == 1


def test_a_pickled_identity_hashes_afresh_under_another_hash_seed(tmp_path):
    entry = CATALOG.get("cb13")
    {entry: None}  # the record keeps its hash in this process
    path = tmp_path / "entry.pickle"
    path.write_bytes(pickle.dumps(entry))
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    code = (
        "import pickle, sys\n"
        "from thetaval.exact import build_catalog\n"
        "entry = pickle.loads(open(sys.argv[1], 'rb').read())\n"
        "fresh = build_catalog().get(entry.id)\n"
        "assert entry == fresh and hash(entry) == hash(fresh)\n"
        "assert {fresh: 'found'}[entry] == 'found'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        env={**os.environ, "PYTHONHASHSEED": seed},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


class TestCrossForm:
    def test_r9_times_yi9_is_inverse_sqrt3(self):
        ctx = PrecCtx(512)
        prod = eval_expr(CATALOG.get("r9").rhs, ctx) * eval_expr(
            CATALOG.get("yi_9").rhs, ctx
        )
        assert prod.overlaps(1 / sqrt(Ball.from_fraction(3, 512)))

    def test_cb27_with_r3_matches_series(self):
        ctx = PrecCtx(512)
        combined = eval_expr(CATALOG.get("cb27").rhs, ctx) * eval_expr(
            CATALOG.get("r3").rhs, ctx
        )
        direct = phi_series(QPoint(1, F(729)), ctx) / phi_series(QPoint(1, F(1)), ctx)
        assert combined.overlaps(direct)

    def test_scalar_and_theta_nodes(self):
        t = parse_expr("2 * (phi(qpoint(+1, 1)) / phi(qpoint(+1, 1)))")
        assert t == Mul(Int(2), Div(Phi(QPoint(1, F(1))), Phi(QPoint(1, F(1)))))
        assert eval_expr(t, CTX).contains(2)
        assert parse_expr("classinv(1)") == ClassInv(F(1))
        assert eval_expr(parse_expr("classinv(1)"), CTX).contains(1)
        assert eval_theta(ClassInv(F(1)), CTX).contains(1)
