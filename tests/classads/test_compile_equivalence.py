"""Differential tests: the closure compiler against the interpreter.

The compiled evaluator (:mod:`repro.classads.compile`) claims *exact*
equivalence with the tree-walking interpreter — value for value,
``undefined`` vs ``false`` for ``undefined`` vs ``false``, and ``error``
for ``error``.  This suite makes that claim checkable rather than
asserted:

* a directed catalog of semantic corners (string case rules, mixed
  int/float comparison, division/modulus faults, three-valued logic,
  scope resolution, cycles, bilateral ``self``/``other`` evaluation);
* hypothesis sweeps over randomly generated expressions and ad pairs
  (marked slow, like the other property tests);
* unit tests for the machinery itself: per-ad cache invalidation on
  mutation, the ``REPRO_NO_COMPILE`` kill-switch, the observability
  counters, and the structural-memo type discrimination.

Comparison uses :func:`values_identical`, the language's own strictest
equality (distinguishes ``3``/``3.0``/``true`` and ``undefined``/
``false``; all errors compare equal).
"""

import pytest

from hypothesis import given, settings

from repro.classads import ClassAd, parse, values_identical
from repro.classads import compile as cc
from repro.classads import evaluator as interp
from repro.config import override, switches
from repro.obs import metrics

from tests.classads.test_properties import classads, expressions


@pytest.fixture(autouse=True)
def _compiled_mode():
    """Force the compiled path on (the env kill-switch may be set in CI)."""
    with override(compile=True):
        yield


def both(source_or_expr, self_ad=None, other=None, **kwargs):
    """(compiled, interpreted) results for one expression evaluation."""
    expr = parse(source_or_expr) if isinstance(source_or_expr, str) else source_or_expr
    compiled = cc.evaluate(expr, self_ad, other=other, **kwargs)
    interpreted = interp.evaluate(expr, self_ad, other=other, **kwargs)
    return compiled, interpreted


def assert_equivalent(source_or_expr, self_ad=None, other=None, **kwargs):
    compiled, interpreted = both(source_or_expr, self_ad, other, **kwargs)
    assert values_identical(compiled, interpreted), (
        f"{source_or_expr!r}: compiled={compiled!r} interpreted={interpreted!r}"
    )


MACHINE = ClassAd.parse(
    """[
    Type = "Machine"; Name = "crow"; Arch = "INTEL"; OpSys = "SOLARIS251";
    Memory = 64; Disk = 323496; KFlops = 21893; LoadAvg = 0.042;
    State = "Unclaimed"; Tier = [ Kind = "gold"; Bonus = 7 ];
    Groups = { "cs", "physics", "staff" };
    Constraint = other.Type == "Job" && LoadAvg < 0.3;
    Rank = other.Owner == "raman" ? 10 : 0;
]"""
)

JOB = ClassAd.parse(
    """[
    Type = "Job"; Owner = "raman"; QDate = 886799469;
    Memory = 31; Cmd = "run_sim";
    Constraint = other.Type == "Machine" && Arch == "INTEL"
                 && OpSys == "SOLARIS251" && Disk >= 10000;
    Rank = other.KFlops / 1E3 + other.Memory / 32;
]"""
)


CORNER_EXPRESSIONS = [
    # ---- arithmetic, including the fault corners the harness targets
    "1 + 2 * 3 - 4",
    "7 / 2",
    "-7 / 2",
    "7 / -2",
    "-7 / -2",
    "7.0 / 2",
    "7 % 3",
    "-7 % 3",
    "7 % -3",
    "1 / 0",
    "1.0 / 0",
    "1 % 0",
    "1.5 % 2",
    '"a" + 1',
    "9007199254740993 / 3",  # 2**53 + 1: breaks float round-tripping
    "9007199254740993 % 4",
    "-9007199254740993 / 4",
    # ---- mixed int/float/bool comparison
    "1 == 1.0",
    "true == 1",
    "false < 0.5",
    "3 < 3.14",
    '"10" == 10',
    # ---- string case rules: == is case-insensitive, `is` is not
    '"LINUX" == "linux"',
    '"LINUX" is "linux"',
    '"LINUX" isnt "linux"',
    '"abc" < "ABD"',
    # ---- three-valued logic
    "undefined && true",
    "undefined && false",
    "false && error",
    "true && undefined",
    "undefined || true",
    "undefined || false",
    "true || error",
    "error || true",
    "undefined || error",
    "error && undefined",
    "1 && true",
    "!undefined",
    "!error",
    "!3",
    # ---- is / isnt meta-identity
    "undefined is undefined",
    "error is error",
    "3 is 3.0",
    "1 is true",
    "undefined isnt false",
    # ---- strictness
    "undefined + 1",
    "error + 1",
    "undefined == undefined",
    "undefined < 3",
    # ---- conditionals (lazy branches)
    "true ? 1 : error",
    "false ? error : 2",
    "undefined ? 1 : 2",
    "error ? 1 : 2",
    "3 ? 1 : 2",
    "1 < 2 ? (1/0) : 7",
    # ---- lists and subscripts
    "{1, 2, 3}[1]",
    "{1, 2, 3}[5]",
    "{1, 2, 3}[-1]",
    "{1, 2, 3}[true]",
    '{1, "two", 3.0}[undefined]',
    "3[0]",
    "{10, 20}[1 - 1]",
    # ---- records and selects
    "[a = 1; b = a + 1].b",
    "[a = 1].missing",
    "3 .x",
    "Tier.Bonus",
    "Tier.Kind",
    # ---- builtins (incl. constant folding of pure calls)
    'size("hello")',
    "size({1, 2})",
    'strcat("a", "b", 3)',
    'member("cs", Groups)',
    "isUndefined(Missing)",
    "isInteger(3)",
    "isInteger(3.0)",
    "isInteger(true)",
    "min(3, 1.5, 2)",
    "nosuchfunction(1)",
    "ifThenElse(true, 1, error)",
    "ifThenElse(undefined, 1, 2)",
    "ifThenElse(1, 2)",
    # ---- references and scope fall-through
    "Memory",
    "self.Memory",
    "other.Memory",
    "Missing",
    "other.Missing",
    "self.Owner",  # absent on MACHINE's side, present on JOB's
    "Owner",  # bare-name fall-through to the other ad
    "Memory + other.Memory",
]


class TestCornerCatalog:
    @pytest.mark.parametrize("source", CORNER_EXPRESSIONS)
    def test_machine_vs_job(self, source):
        assert_equivalent(source, MACHINE, JOB)

    @pytest.mark.parametrize("source", CORNER_EXPRESSIONS)
    def test_job_vs_machine(self, source):
        assert_equivalent(source, JOB, MACHINE)

    @pytest.mark.parametrize("source", CORNER_EXPRESSIONS)
    def test_detached(self, source):
        assert_equivalent(source)

    def test_bilateral_constraints_and_ranks(self):
        for ad, other in ((MACHINE, JOB), (JOB, MACHINE)):
            for attr in ("Constraint", "Rank"):
                compiled = cc.evaluate_attribute(ad, attr, other=other)
                interpreted = interp.evaluate_attribute(ad, attr, other=other)
                assert values_identical(compiled, interpreted)


class TestResolutionCorners:
    def test_circular_reference_is_undefined(self):
        from repro.classads import UNDEFINED

        ad = ClassAd()
        ad.set_expr("a", "b")
        ad.set_expr("b", "a")
        # Both paths detect a -> b -> a exactly and yield undefined.
        assert interp.evaluate_attribute(ad, "a") is UNDEFINED
        assert cc.evaluate_attribute(ad, "a") is UNDEFINED

    def test_ping_pong_across_ads_terminates_identically(self):
        a = ClassAd({"Type": "A"})
        a.set_expr("Rank", "other.Rank")
        b = ClassAd({"Type": "B"})
        b.set_expr("Rank", "other.Rank")
        compiled = cc.evaluate_attribute(a, "Rank", other=b)
        interpreted = interp.evaluate_attribute(a, "Rank", other=b)
        assert values_identical(compiled, interpreted)

    def test_attribute_chain(self):
        ad = ClassAd()
        for i in range(20):
            ad.set_expr(f"a{i}", f"a{i + 1} + 1")
        ad["a20"] = 0
        assert values_identical(
            cc.evaluate_attribute(ad, "a0"), interp.evaluate_attribute(ad, "a0")
        )

    def test_small_step_budget_matches_interpreter(self):
        ad = ClassAd()
        for i in range(20):
            ad.set_expr(f"a{i}", f"a{i + 1} + 1")
        ad["a20"] = 0
        from repro.classads import is_error

        compiled = cc.evaluate_attribute(ad, "a0", max_steps=10)
        interpreted = interp.evaluate_attribute(ad, "a0", max_steps=10)
        # Both must fault on the budget (the compiled path charges
        # conservatively but may not exceed where the interpreter would
        # succeed; at budget 10 both must fail).
        assert is_error(compiled) and is_error(interpreted)

    def test_deep_static_nesting_falls_back(self):
        source = "!" * 300 + "true"
        assert_equivalent(source, MACHINE, JOB)

    def test_nested_record_sibling_scope(self):
        ad = ClassAd.parse("[ Outer = [ X = 2; Y = X * 3 ]; Z = Outer.Y ]")
        assert values_identical(
            cc.evaluate_attribute(ad, "Z"), interp.evaluate_attribute(ad, "Z")
        )


class TestHypothesisSweeps:
    pytestmark = pytest.mark.slow

    @given(expressions(), classads(depth=4), classads(depth=4))
    @settings(max_examples=400, deadline=None)
    def test_expression_equivalence(self, expr, self_ad, other_ad):
        compiled = cc.evaluate(expr, self_ad, other=other_ad)
        interpreted = interp.evaluate(expr, self_ad, other=other_ad)
        assert values_identical(compiled, interpreted)

    @given(classads(depth=5), classads(depth=5))
    @settings(max_examples=150, deadline=None)
    def test_attribute_equivalence(self, ad, other):
        for name in ad.keys():
            compiled = cc.evaluate_attribute(ad, name, other=other)
            interpreted = interp.evaluate_attribute(ad, name, other=other)
            assert values_identical(compiled, interpreted)

    @given(expressions(max_leaves=10), classads(depth=3))
    @settings(max_examples=150, deadline=None)
    def test_compiled_expr_wrapper_equivalence(self, expr, ad):
        wrapper = cc.compile_expr(expr)
        assert values_identical(wrapper.evaluate(ad), interp.evaluate(expr, ad))


class TestCacheMachinery:
    def test_mutation_invalidates_compiled_attribute(self):
        ad = ClassAd({"Memory": 64})
        ad.set_expr("Constraint", "Memory >= 32")
        assert cc.evaluate_attribute(ad, "Constraint") is True
        ad["Memory"] = 16
        assert cc.evaluate_attribute(ad, "Constraint") is False
        ad.set_expr("Constraint", "Memory >= 8")
        assert cc.evaluate_attribute(ad, "Constraint") is True
        del ad["Constraint"]
        from repro.classads import UNDEFINED

        assert cc.evaluate_attribute(ad, "Constraint") is UNDEFINED

    def test_warm_cache_hits_are_counted(self):
        ad = ClassAd({"Type": "Machine"})
        ad.set_expr("Constraint", 'other.Kind == "probe-hits"')
        other = ClassAd({"Kind": "probe-hits"})
        cc.evaluate_attribute(ad, "Constraint", other=other)  # compile miss
        before = cc.cache_stats()
        for _ in range(5):
            assert cc.evaluate_attribute(ad, "Constraint", other=other) is True
        after = cc.cache_stats()
        assert after["hits"] - before["hits"] >= 5
        assert after["misses"] == before["misses"]
        assert cc.cache_hits_total() == after["hits"]

    def test_structurally_equal_ads_share_compiled_code(self):
        source = 'other.Type == "Job" && Memory > 1'
        ads = []
        for _ in range(3):
            ad = ClassAd({"Type": "Machine", "Memory": 64})
            ad.set_expr("Constraint", source)
            ads.append(ad)
        other = ClassAd({"Type": "Job"})
        cc.clear_cache()
        before = cc.cache_stats()["compiles"]
        for ad in ads:
            assert cc.evaluate_attribute(ad, "Constraint", other=other) is True
        compiled = cc.cache_stats()["compiles"] - before
        # One compile serves all three structurally identical constraints.
        assert compiled == 1

    def test_memo_distinguishes_literal_types(self):
        # Literal(3) == Literal(3.0) == Literal(true) under structural
        # equality; the memo must not conflate their code.
        assert_equivalent("isInteger(3)")
        assert_equivalent("isInteger(3.0)")
        assert_equivalent("isReal(3.0)")
        assert_equivalent("isBoolean(true)")
        assert_equivalent("3 is 3")
        assert_equivalent("3.0 is 3")

    def test_counters_flush_into_registry(self):
        metrics.enable()
        try:
            metrics.reset()
            ad = ClassAd({"Type": "Machine"})
            ad.set_expr("Constraint", 'other.Kind == "flush-probe"')
            other = ClassAd({"Kind": "flush-probe"})
            for _ in range(3):
                cc.evaluate_attribute(ad, "Constraint", other=other)
            totals = metrics.totals()
            assert totals.get("classads.compile.cache_hits", 0) >= 2
            assert totals.get("classads.compile.cache_misses", 0) >= 1
            # The compiled path still reports toplevel evaluations.
            assert totals.get("classads.evaluations", 0) >= 3
            assert totals.get("classads.eval_steps", 0) >= totals["classads.evaluations"]
        finally:
            metrics.disable()
            metrics.reset()


class TestKillSwitch:
    def test_override_routes_to_interpreter(self):
        ad = ClassAd({"Memory": 64})
        ad.set_expr("Constraint", "Memory >= 32")
        with override(compile=False):
            assert not switches.compile
            before = cc.cache_stats()
            assert cc.evaluate_attribute(ad, "Constraint") is True
            assert cc.evaluate(parse("1 + 1"), ad) == 2
            assert cc.compile_expr(parse("Memory > 1")).evaluate(ad) is True
            # Disabled path never touches the compiled caches.
            assert cc.cache_stats() == before

    def test_env_kill_switch(self):
        import subprocess
        import sys

        code = (
            "from repro.classads import ClassAd\n"
            "from repro.config import switches\n"
            "ad = ClassAd({'Memory': 64})\n"
            "ad.set_expr('Constraint', 'Memory >= 32')\n"
            "assert not switches.compile\n"
            "assert ad.evaluate('Constraint') is True\n"
            "from repro.classads.compile import cache_stats\n"
            "assert cache_stats()['compiles'] == 0\n"
            "print('ok')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "REPRO_NO_COMPILE": "1", "PATH": "/usr/bin:/bin"},
            cwd=".",
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"


class TestBigIntDivisionRegression:
    """The float-round-trip bug the differential harness surfaced: integer
    ``/`` and ``%`` past 2**53 lost precision in both semantics paths."""

    def test_exact_big_int_division(self):
        big = 2**53 + 1
        assert interp.evaluate(parse(f"{big} / 1")) == big
        assert cc.evaluate(parse(f"{big} / 1")) == big
        assert interp.evaluate(parse(f"{3 * big} / 3")) == big
        assert cc.evaluate(parse(f"{3 * big} / 3")) == big

    def test_exact_big_int_modulus(self):
        big = 2**61 + 7
        assert interp.evaluate(parse(f"{big} % 1000")) == big % 1000
        assert cc.evaluate(parse(f"{big} % 1000")) == big % 1000

    def test_truncation_toward_zero_preserved(self):
        # C semantics, not Python floor semantics.
        for l, r in ((7, 2), (-7, 2), (7, -2), (-7, -2)):
            assert interp.evaluate(parse(f"({l}) / ({r})")) == int(l / r)
            assert cc.evaluate(parse(f"({l}) / ({r})")) == int(l / r)
            expected_mod = l - r * int(l / r)
            assert interp.evaluate(parse(f"({l}) % ({r})")) == expected_mod
            assert cc.evaluate(parse(f"({l}) % ({r})")) == expected_mod
