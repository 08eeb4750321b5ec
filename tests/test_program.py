"""Weighted-program layer: logit, the text dump, grounding and body-group
compilation."""

import math

import pytest
from hypothesis import given, strategies as st

from groundsim.logic import (
    HAVE,
    Atom,
    Const,
    SkolemApp,
    SkolemFn,
    Var,
    attr_pred,
    cls_pred,
)
from groundsim.program import (
    HARD,
    LOGIT_EPS,
    BodyGroup,
    ProgramError,
    WeightedProgram,
    WeightedRule,
    ground,
    logit,
    rule_to_text,
)


def gatom(name: str, *args: str) -> Atom:
    pred = cls_pred(name) if len(args) == 1 else HAVE
    return Atom(pred, tuple(Const(a) for a in args))


# ---------------------------------------------------------------------------
# logit


def logistic(w: float) -> float:
    return 1.0 / (1.0 + math.exp(-w))


def test_logit_known_values():
    assert logit(0.5) == 0.0
    assert math.isclose(logit(0.95), math.log(19), rel_tol=1e-12)
    assert math.isclose(logistic(logit(0.2)), 0.2, rel_tol=1e-12)


def test_logit_clamps_extremes():
    assert logit(0.0) == logit(LOGIT_EPS)
    assert logit(1.0) == logit(1.0 - LOGIT_EPS)


def test_logit_range_checked():
    with pytest.raises(ValueError):
        logit(-0.1)
    with pytest.raises(ValueError):
        logit(1.1)


@given(st.floats(min_value=1e-5, max_value=1.0 - 1e-5))
def test_sigmoid_inverts_logit(s):
    assert math.isclose(logistic(logit(s)), s, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# rule predicates


def test_rule_shape_predicates():
    fact = WeightedRule(1.0, gatom("p", "o"))
    constraint = WeightedRule(1.0, None, (gatom("p", "o"),), ())
    definite = WeightedRule(HARD, gatom("q", "o"), (gatom("p", "o"),), ())
    assert fact.is_fact() and not fact.is_constraint()
    assert constraint.is_constraint() and not constraint.is_fact()
    assert not definite.is_fact() and not definite.is_constraint()


def test_atom_universe_includes_group_atoms():
    group = BodyGroup((gatom("short", "s1"), gatom("stem", "s1")))
    prog = WeightedProgram([WeightedRule(1.0, None, (gatom("p", "o"),), (group,))])
    assert prog.atom_universe() == {
        gatom("p", "o"),
        gatom("short", "s1"),
        gatom("stem", "s1"),
    }


# ---------------------------------------------------------------------------
# text format


def test_rule_to_text_forms():
    assert rule_to_text(WeightedRule(1.5, gatom("p", "o"))) == "1.500000| p(o)."
    assert (
        rule_to_text(WeightedRule(HARD, gatom("q", "o"), (gatom("p", "o"),), ()))
        == "#hard| q(o) :- p(o)."
    )
    assert (
        rule_to_text(
            WeightedRule(2.944439, None, (gatom("p", "o"),), (gatom("q", "o"),))
        )
        == "2.944439| :- p(o), not q(o)."
    )


def test_body_group_renders_braced():
    group = BodyGroup((gatom("short", "s1"), gatom("stem", "s1")))
    text = rule_to_text(WeightedRule(1.0, None, (), (group,)))
    assert text == "1.000000| :- not {short(s1) & stem(s1)}."


# ---------------------------------------------------------------------------
# grounding


def o_var_constraint(neg_group: bool = True) -> WeightedRule:
    o = Var("O")
    fo = SkolemApp(SkolemFn("brandyGlass", "stem"), o)
    group = BodyGroup(
        (Atom(HAVE, (o, fo)), Atom(attr_pred("short"), (fo,)), Atom(cls_pred("stem"), (fo,)))
    )
    body = (Atom(cls_pred("brandyGlass"), (o,)),)
    if neg_group:
        return WeightedRule(2.944439, None, body, (group,))
    return WeightedRule(2.944439, None, (group,), body)


def test_ground_instantiates_per_entity():
    rule = WeightedRule(
        1.0, None, (Atom(cls_pred("p"), (Var("O"),)),), (Atom(cls_pred("q"), (Var("O"),)),)
    )
    out = ground(WeightedProgram([rule]), ["o2", "o1"])
    texts = [rule_to_text(r) for r in out]
    assert texts == [
        "1.000000| :- p(o1), not q(o1).",
        "1.000000| :- p(o2), not q(o2).",
    ]


def test_ground_compiles_body_group_to_aux_rules():
    out = ground(
        WeightedProgram([o_var_constraint()]),
        ["o1"],
        {"o1": ["o1_bowl", "o1_stem"]},
    )
    texts = [rule_to_text(r) for r in out]
    assert texts == [
        "#hard| aux_have_short_stem(o1) :- have(o1,o1_bowl), short(o1_bowl), stem(o1_bowl).",
        "#hard| aux_have_short_stem(o1) :- have(o1,o1_stem), short(o1_stem), stem(o1_stem).",
        "2.944439| :- brandyGlass(o1), not aux_have_short_stem(o1).",
    ]


def test_ground_dedupes_aux_rules_across_constraints():
    prog = WeightedProgram([o_var_constraint(True), o_var_constraint(False)])
    out = ground(prog, ["o1"], {"o1": ["o1_stem"]})
    hard_defs = [r for r in out if r.weight is HARD]
    assert len(hard_defs) == 1


def test_ground_rejects_multiple_free_variables():
    rule = WeightedRule(
        1.0,
        None,
        (Atom(cls_pred("p"), (Var("O"),)), Atom(cls_pred("q"), (Var("X"),))),
        (),
    )
    with pytest.raises(ProgramError):
        ground(WeightedProgram([rule]), ["o1"])


def test_ground_rejects_body_group_with_two_skolem_functions():
    o = Var("O")
    group = BodyGroup(
        tuple(
            Atom(cls_pred(part), (SkolemApp(SkolemFn("brandyGlass", part), o),))
            for part in ("bowl", "stem")
        )
    )
    rule = WeightedRule(1.0, None, (group,), ())
    with pytest.raises(ProgramError, match="2 skolem functions"):
        ground(WeightedProgram([rule]), ["o1"], {"o1": ["o1_bowl", "o1_stem"]})


def test_ground_compiles_skolem_free_group_once_per_entity():
    o = Var("O")
    group = BodyGroup((Atom(cls_pred("p"), (o,)), Atom(cls_pred("q"), (o,))))
    r = Atom(cls_pred("r"), (o,))
    prog = WeightedProgram(
        [WeightedRule(1.0, None, (r,), (group,)), WeightedRule(2.0, None, (group,), (r,))]
    )
    out = ground(prog, ["o2", "o1"])
    assert [rule_to_text(x) for x in out] == [
        "#hard| aux_p_q(o1) :- p(o1), q(o1).",
        "1.000000| :- r(o1), not aux_p_q(o1).",
        "#hard| aux_p_q(o2) :- p(o2), q(o2).",
        "1.000000| :- r(o2), not aux_p_q(o2).",
        "2.000000| :- aux_p_q(o1), not r(o1).",
        "2.000000| :- aux_p_q(o2), not r(o2).",
    ]


def test_ground_rejects_body_group_without_a_variable():
    group = BodyGroup((gatom("p", "o1"), gatom("q", "o1")))
    rule = WeightedRule(1.0, None, (group,), ())
    with pytest.raises(ProgramError, match="body group outside any entity binding"):
        ground(WeightedProgram([rule]), ["o1"])


def test_ground_object_without_parts_yields_unsupported_aux():
    out = ground(WeightedProgram([o_var_constraint()]), ["o1"], {"o1": []})
    # no candidate parts: the aux atom appears but has no supporting rule
    assert [rule_to_text(r) for r in out] == [
        "2.944439| :- brandyGlass(o1), not aux_have_short_stem(o1)."
    ]


def test_ground_is_noop_for_ground_rules():
    rule = WeightedRule(0.5, gatom("p", "o7"))
    out = ground(WeightedProgram([rule]), ["o1", "o2"])
    assert list(out) == [rule]
