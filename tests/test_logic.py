"""Logical-form layer: construction invariants, substitution, predicate
swapping, implicature derivation, structural keys, text rendering."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from groundsim.logic import (
    HAVE,
    Atom,
    Conjunction,
    Const,
    PredicateSym,
    Prop,
    Ques,
    SkolemApp,
    SkolemFn,
    Var,
    attr_pred,
    canonicalize,
    cls_pred,
    cons_key,
    contradicts,
    derive_neg_implicature,
    instance_atom,
    instance_prop,
    part_cons,
    part_properties,
    prop_key,
    prop_to_text,
    ques_to_text,
    rel_pred,
    skolemize_part_description,
    subst_atom,
    substitute,
    swap_predicates,
    what_is,
)

BRANDY = cls_pred("brandyGlass")
BURGUNDY = cls_pred("burgundyGlass")
SHORT = attr_pred("short")
STEM = cls_pred("stem")


def ground_prop(cls: str, eid: str = "o1", neg: bool = False) -> Prop:
    return Prop(
        ante=Conjunction(()),
        cons=Conjunction((Atom(cls_pred(cls), (Const(eid),)),)),
        cons_negated=neg,
    )


def generic_prop(ante: str, cons: str, var: str = "O", neg: bool = False) -> Prop:
    v = Var(var)
    return Prop(
        ante=Conjunction((Atom(cls_pred(ante), (v,)),)),
        cons=Conjunction((Atom(cls_pred(cons), (v,)),)),
        generic=True,
        cons_negated=neg,
    )


# ---------------------------------------------------------------------------
# construction invariants


def test_predicate_validation():
    with pytest.raises(ValueError):
        PredicateSym("p", 0)
    with pytest.raises(ValueError):
        PredicateSym("r", 1, "relation")
    assert rel_pred("have").arity == 2


def test_atom_arity_checked():
    with pytest.raises(ValueError):
        Atom(cls_pred("p"), (Const("a"), Const("b")))


def test_skolem_apps_do_not_nest():
    fn = SkolemFn("brandyGlass", "stem")
    inner = SkolemApp(fn, Const("o1"))
    with pytest.raises(ValueError):
        SkolemApp(fn, inner)


def test_atoms_and_skolem_terms_print_as_program_text():
    stem = SkolemApp(SkolemFn("brandyGlass", "stem"), Var("O"))
    assert str(stem) == "sk_brandyGlass_stem(O)"
    assert str(Atom(SHORT, (Const("o2_stem"),))) == "short(o2_stem)"
    assert str(Atom(HAVE, (Var("O"), stem))) == "have(O,sk_brandyGlass_stem(O))"


def test_prop_requires_nonempty_consequent():
    with pytest.raises(ValueError):
        Prop(ante=Conjunction(()), cons=Conjunction(()))


def test_nongeneric_prop_must_be_ground():
    with pytest.raises(ValueError):
        Prop(ante=Conjunction(()), cons=Conjunction((Atom(BRANDY, (Var("O"),)),)))


def test_generic_prop_needs_shared_variable():
    with pytest.raises(ValueError):
        Prop(
            ante=Conjunction((Atom(BRANDY, (Var("O"),)),)),
            cons=Conjunction((Atom(STEM, (Var("X"),)),)),
            generic=True,
        )


def test_concept_diff_ques_rejects_non_class_pair():
    with pytest.raises(ValueError):
        Ques("conceptDiff", pair=(BRANDY, SHORT))


# ---------------------------------------------------------------------------
# substitution


def test_substitute_grounds_generic():
    p = generic_prop("brandyGlass", "haveShortStem")
    g = substitute(p, {"O": Const("o1")})
    assert not g.generic
    assert g.ante.atoms[0].args == (Const("o1"),)
    assert g.cons.atoms[0].args == (Const("o1"),)


def test_substitute_reaches_skolem_argument():
    p = skolemize_part_description(BRANDY, SHORT, STEM)
    g = substitute(p, {"O": Const("o1")})
    have_atom = g.cons.atoms[0]
    assert have_atom.pred == HAVE
    assert have_atom.args[1] == SkolemApp(SkolemFn("brandyGlass", "stem"), Const("o1"))
    assert all(a.is_ground() for a in g.cons)


def test_subst_atom_binds_a_skolem_function_to_its_term():
    stem, bowl = SkolemFn("brandyGlass", "stem"), SkolemFn("brandyGlass", "bowl")
    o = Var("O")
    atom = Atom(HAVE, (SkolemApp(stem, o), SkolemApp(bowl, o)))
    bound = subst_atom(atom, {stem: Const("o1_stem"), "O": Const("o1")})
    assert bound == Atom(HAVE, (Const("o1_stem"), SkolemApp(bowl, Const("o1"))))


# ---------------------------------------------------------------------------
# the dialogue's sentence forms


def test_instance_prop_and_what_is_build_the_template_forms():
    assert instance_prop(BRANDY, "o1") == ground_prop("brandyGlass")
    assert instance_prop(BRANDY, "o1", negated=True) == ground_prop("brandyGlass", neg=True)
    assert what_is("o1") == Ques("wh", prop=ground_prop("P"), var="P")


def test_instance_atom_reads_only_ground_one_atom_props():
    assert instance_atom(ground_prop("brandyGlass", neg=True)) == Atom(BRANDY, (Const("o1"),))
    assert instance_atom(what_is("o2").prop) == Atom(cls_pred("P"), (Const("o2"),))
    has_part = Prop(
        ante=Conjunction(()), cons=part_cons(Const("o1"), SkolemFn("o1", "stem"), SHORT, STEM)
    )
    for form in (has_part, generic_prop("brandyGlass", "burgundyGlass"), what_is("o1"), "Correct"):
        assert instance_atom(form) is None


def test_part_cons_is_the_consequent_of_a_part_description():
    o = Var("O")
    fo = SkolemApp(SkolemFn("brandyGlass", "stem"), o)
    expected = Conjunction((Atom(HAVE, (o, fo)), Atom(SHORT, (fo,)), Atom(STEM, (fo,))))
    assert part_cons(o, SkolemFn("brandyGlass", "stem"), SHORT, STEM) == expected
    assert skolemize_part_description(BRANDY, SHORT, STEM).cons == expected


def test_part_properties_pairs_each_attribute_with_its_own_part():
    gen = skolemize_part_description(BRANDY, SHORT, STEM)
    assert part_properties(gen.cons) == [(SHORT, STEM)]
    o = Const("o1")
    stem, bowl = SkolemApp(SkolemFn("o1", "stem"), o), SkolemApp(SkolemFn("o1", "bowl"), o)
    thin, wide, bowl_pred = attr_pred("thin"), attr_pred("wide"), cls_pred("bowl")
    cons = Conjunction(
        (
            Atom(HAVE, (o, stem)),
            Atom(SHORT, (stem,)),
            Atom(HAVE, (o, bowl)),
            Atom(wide, (bowl,)),
            Atom(bowl_pred, (bowl,)),
            Atom(STEM, (stem,)),
            Atom(thin, (stem,)),
        )
    )
    assert part_properties(cons) == [(SHORT, STEM), (thin, STEM), (wide, bowl_pred)]
    # an attribute whose skolem term has no part atom pairs with nothing
    assert part_properties(Conjunction((Atom(SHORT, (stem,)), Atom(BRANDY, (o,))))) == []


# ---------------------------------------------------------------------------
# predicate swap and implicatures


def test_swap_is_involutive():
    p = skolemize_part_description(BRANDY, SHORT, STEM)
    twice = swap_predicates(swap_predicates(p, BRANDY, BURGUNDY), BRANDY, BURGUNDY)
    assert twice == p


def test_swap_renames_skolem_function():
    p = skolemize_part_description(BRANDY, SHORT, STEM)
    q = swap_predicates(p, BRANDY, BURGUNDY)
    assert q.ante.atoms[0].pred == BURGUNDY
    fo = q.cons.atoms[0].args[1]
    assert fo.fn == SkolemFn("burgundyGlass", "stem")


def test_swap_requires_matching_kind_and_arity():
    p = generic_prop("brandyGlass", "haveShortStem")
    with pytest.raises(ValueError):
        swap_predicates(p, BRANDY, SHORT)


def test_neg_implicature_flips_consequent_of_swapped_form():
    psi = skolemize_part_description(BRANDY, SHORT, STEM)
    neg = derive_neg_implicature(psi, BRANDY, BURGUNDY)
    assert neg.cons_negated
    assert neg.ante.atoms[0].pred == BURGUNDY
    expected = replace(
        skolemize_part_description(BURGUNDY, SHORT, STEM), cons_negated=True
    )
    assert prop_key(neg) == prop_key(expected)


def test_neg_implicature_requires_exactly_one_swapped_in_ante():
    psi = skolemize_part_description(BRANDY, SHORT, STEM)
    with pytest.raises(ValueError):
        derive_neg_implicature(psi, cls_pred("martiniGlass"), cls_pred("bordeauxGlass"))
    with pytest.raises(ValueError):
        derive_neg_implicature(psi, BRANDY, BRANDY)


def test_neg_implicature_rejects_ground_prop():
    with pytest.raises(ValueError):
        derive_neg_implicature(ground_prop("brandyGlass"), BRANDY, BURGUNDY)


# ---------------------------------------------------------------------------
# canonicalization and structural keys


def test_prop_key_ignores_variable_names():
    assert prop_key(generic_prop("brandyGlass", "haveShortStem", var="O")) == prop_key(
        generic_prop("brandyGlass", "haveShortStem", var="X")
    )


def test_prop_key_ignores_conjunct_order():
    o = Var("O")
    fo = SkolemApp(SkolemFn("brandyGlass", "stem"), o)
    atoms = (Atom(HAVE, (o, fo)), Atom(SHORT, (fo,)), Atom(STEM, (fo,)))
    p1 = Prop(
        ante=Conjunction((Atom(BRANDY, (o,)),)),
        cons=Conjunction(atoms),
        generic=True,
    )
    p2 = replace(p1, cons=Conjunction(atoms[::-1]))
    assert prop_key(p1) == prop_key(p2)


def test_prop_key_canonicalizes_skolem_identity():
    # the same part description written with a notation-fresh skolem function
    o = Var("O")
    fo = SkolemApp(SkolemFn("freshTag", "freshPart"), o)
    fresh = Prop(
        ante=Conjunction((Atom(BRANDY, (o,)),)),
        cons=Conjunction(
            (Atom(HAVE, (o, fo)), Atom(SHORT, (fo,)), Atom(STEM, (fo,)))
        ),
        generic=True,
    )
    assert prop_key(fresh) == prop_key(skolemize_part_description(BRANDY, SHORT, STEM))


def test_prop_key_distinguishes_polarity():
    p = generic_prop("brandyGlass", "haveShortStem")
    assert prop_key(p) != prop_key(replace(p, cons_negated=True))


def test_cons_key_groups_shared_consequents():
    p1 = generic_prop("brandyGlass", "haveShortStem")
    p2 = generic_prop("snifter", "haveShortStem")
    assert cons_key(p1) == cons_key(p2)
    assert prop_key(p1) != prop_key(p2)


def test_canonicalize_renames_in_order_of_appearance():
    p = generic_prop("brandyGlass", "haveShortStem", var="Z")
    q = canonicalize(p)
    assert prop_to_text(p).startswith("G Z. ")
    assert prop_to_text(q).startswith("G O. ")
    assert q.ante.atoms[0].args == (Var("O"),)


# ---------------------------------------------------------------------------
# contradiction


def test_contradicts_exact_negation_only():
    p = skolemize_part_description(BRANDY, SHORT, STEM)
    assert contradicts(p, replace(p, cons_negated=True))
    assert not contradicts(p, p)
    other_ante = skolemize_part_description(BURGUNDY, SHORT, STEM)
    assert not contradicts(p, replace(other_ante, cons_negated=True))


def test_contradicts_ignores_partial_overlap():
    o = Var("O")
    fo = SkolemApp(SkolemFn("c", "bowl"), o)
    two = Prop(
        ante=Conjunction((Atom(cls_pred("c"), (o,)),)),
        cons=Conjunction(
            (
                Atom(HAVE, (o, fo)),
                Atom(attr_pred("wide"), (fo,)),
                Atom(attr_pred("round"), (fo,)),
                Atom(cls_pred("bowl"), (fo,)),
            )
        ),
        generic=True,
    )
    one = skolemize_part_description(cls_pred("c"), attr_pred("wide"), cls_pred("bowl"))
    assert not contradicts(two, replace(one, cons_negated=True))


def test_contradicts_requires_generics():
    with pytest.raises(ValueError):
        contradicts(ground_prop("brandyGlass"), ground_prop("brandyGlass", neg=True))


# ---------------------------------------------------------------------------
# rendering


def test_prop_to_text_shapes():
    assert prop_to_text(ground_prop("brandyGlass")) == "brandyGlass(o1)"
    assert prop_to_text(ground_prop("brandyGlass", neg=True)) == "~(brandyGlass(o1))"
    assert (
        prop_to_text(skolemize_part_description(BRANDY, SHORT, STEM))
        == "G O. brandyGlass(O) => have(O,f(O)), short(f(O)), stem(f(O))"
    )
    # two variables print in order of appearance, ante before cons
    x, y = Var("X"), Var("Y")
    two = Prop(
        ante=Conjunction((Atom(rel_pred("near"), (y, x)),)),
        cons=Conjunction((Atom(cls_pred("c"), (x,)),)),
        generic=True,
    )
    assert prop_to_text(two) == "G Y X. near(Y,X) => c(X)"
    assert prop_to_text(canonicalize(two)) == "G O P. near(O,P) => c(P)"


def test_ques_to_text_shapes():
    wh = Ques(
        "wh",
        prop=Prop(
            ante=Conjunction(()),
            cons=Conjunction((Atom(cls_pred("P"), (Const("o1"),)),)),
        ),
        var="P",
    )
    assert ques_to_text(wh) == "?lP.P(o1)"
    assert (
        ques_to_text(Ques("conceptDiff", pair=(BRANDY, BURGUNDY)))
        == "?conceptDiff(brandyGlass,burgundyGlass)"
    )


# ---------------------------------------------------------------------------
# properties


NAMES = st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon", "zeta"])


@given(a=NAMES, c=NAMES, p=NAMES, q=NAMES)
def test_swap_involution_property(a, c, p, q):
    prop = generic_prop(a, c)
    pp, qq = cls_pred(p), cls_pred(q)
    assert swap_predicates(swap_predicates(prop, pp, qq), pp, qq) == prop


@given(a=NAMES, c=NAMES, var=st.sampled_from(["O", "X", "Y", "Zv"]))
def test_prop_key_stable_under_canonicalization(a, c, var):
    prop = generic_prop(a, c, var=var)
    assert prop_key(prop) == prop_key(canonicalize(prop))


# ---------------------------------------------------------------------------
# atom hashing


def test_atom_hash_is_the_dataclass_value():
    for atom in (
        Atom(BRANDY, (Const("o1"),)),
        Atom(HAVE, (Const("o1"), Const("o1_stem"))),
        Atom(SHORT, (SkolemApp(SkolemFn("brandyGlass", "stem"), Var("O")),)),
    ):
        assert atom._hash == hash((atom.pred, atom.args)) == hash(atom)


_PICKLE_ATOMS = """
import pickle
from groundsim.logic import HAVE, Atom, Const, attr_pred, cls_pred
atoms = [Atom(cls_pred("brandyGlass"), (Const("o1"),)), Atom(attr_pred("short"), (Const("o1_stem"),)),
         Atom(HAVE, (Const("o1"), Const("o1_stem")))]
"""


def test_unpickled_atom_hashes_in_the_loading_interpreter(tmp_path):
    """String hashes differ between interpreters, so the stored hash must be
    computed again on load, not carried in the pickle."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = tmp_path / "atoms.pkl"
    dump = _PICKLE_ATOMS + f"pickle.dump(atoms, open({str(path)!r}, 'wb'))\n"
    load = _PICKLE_ATOMS + (
        f"loaded = pickle.load(open({str(path)!r}, 'rb'))\n"
        "index = {a: i for i, a in enumerate(atoms)}\n"
        "assert [index.get(a) for a in loaded] == [0, 1, 2], [index.get(a) for a in loaded]\n"
        "assert all(a._hash == hash((a.pred, a.args)) for a in loaded)\n"
    )
    for seed, code in (("1", dump), ("2", load)):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
