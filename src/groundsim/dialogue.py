"""Template grammar between constrained English and logical forms.

Nine sentence templates cover everything either agent can say:

  "This is a(n) X." / "This is not a(n) X." / "This has a(n) ADJ PART." /
  "Xs have ADJ PARTs." / "What is this?" / "Is this a(n) X?" /
  "How are Xs and Ys different?" / "Correct." / "I am not sure."

Parsing and realization are exact inverses over these forms, which keeps
run transcripts byte-stable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .logic import (
    ATTRIBUTE,
    CLASS,
    Atom,
    Conjunction,
    Const,
    HAVE,
    PredicateSym,
    Prop,
    Ques,
    SkolemApp,
    SkolemFn,
    Var,
    attr_pred,
    cls_pred,
    form_to_text,
    skolemize_part_description,
)
from .memory import Lexicon

CORRECT = "Correct"
NOT_SURE = "NotSure"

SEP = " ␟ "  # unit-separator glyph between transcript fields

VOWELS = "aeiou"


class ParseError(ValueError):
    def __init__(self, surface: str, span: str):
        super().__init__(f"no template matches {span!r} in {surface!r}")
        self.surface = surface
        self.span = span


class RealizeError(ValueError):
    pass


@dataclass
class Utterance:
    speaker: str  # "teacher" | "learner"
    surface: str
    logical_form: Prop | Ques | str  # str for the feedback tokens
    demonstratum: str | None = None


def transcript_line(utt: Utterance) -> str:
    return f"{utt.speaker}{SEP}{utt.surface}{SEP}{form_to_text(utt.logical_form)}"


# ---------------------------------------------------------------------------
# morphology


def pluralize(noun: str) -> str:
    """Pluralize the head (last) word of a noun phrase."""
    words = noun.split(" ")
    head = words[-1]
    if head.endswith(("s", "x", "z", "ch", "sh")):
        head += "es"
    else:
        head += "s"
    return " ".join(words[:-1] + [head])


def singularize(noun: str) -> str:
    words = noun.split(" ")
    head = words[-1]
    if head.endswith(("ses", "xes", "zes", "ches", "shes")):
        head = head[:-2]
    elif head.endswith("s"):
        head = head[:-1]
    return " ".join(words[:-1] + [head])


def article(noun: str) -> str:
    return "an" if noun[:1].lower() in VOWELS else "a"


def pred_name_for(surface: str) -> str:
    """Camel-case a multiword surface: 'brandy glass' -> 'brandyGlass'."""
    words = surface.split(" ")
    return words[0] + "".join(w[:1].upper() + w[1:] for w in words[1:])


def _capitalize(s: str) -> str:
    return s[:1].upper() + s[1:]


# ---------------------------------------------------------------------------
# parsing


_IS_A = re.compile(r"^This is (a|an) (.+)\.$")
_IS_NOT_A = re.compile(r"^This is not (a|an) (.+)\.$")
_HAS_A = re.compile(r"^This has (a|an) ([a-z]+) ([a-z]+)\.$")
_GENERIC = re.compile(r"^(.+) have ([a-z]+) ([a-z]+)\.$")
_WHAT_IS = re.compile(r"^What is this\?$")
_IS_THIS = re.compile(r"^Is this (a|an) (.+)\?$")
_HOW_DIFF = re.compile(r"^How are (.+) and (.+) different\?$")
_CORRECT = re.compile(r"^Correct\.$")
_NOT_SURE = re.compile(r"^I am not sure\.$")


def _noun_pred(lexicon: Lexicon, surface: str) -> PredicateSym:
    """Class/part predicate for a singular noun surface, inserting a
    neologism when unknown."""
    entry = lexicon.lookup_surface(surface, "noun")
    if entry is not None:
        return entry.pred
    pred = cls_pred(pred_name_for(surface))
    lexicon.add(surface, "noun", pred)
    return pred


def _adj_pred(lexicon: Lexicon, surface: str) -> PredicateSym:
    entry = lexicon.lookup_surface(surface, "adj")
    if entry is not None:
        return entry.pred
    pred = attr_pred(pred_name_for(surface))
    lexicon.add(surface, "adj", pred)
    return pred


def _need_demo(surface: str, demonstratum: str | None) -> str:
    if demonstratum is None:
        raise ParseError(surface, "this")
    return demonstratum


def _ground_class_prop(pred: PredicateSym, eid: str, negated: bool) -> Prop:
    return Prop(
        ante=Conjunction(()),
        cons=Conjunction((Atom(pred, (Const(eid),)),)),
        cons_negated=negated,
    )


def _ground_part_prop(eid: str, adj: PredicateSym, part: PredicateSym) -> Prop:
    """'This has a short stem.' read existentially via a demonstratum-keyed
    skolem constant."""
    o = Const(eid)
    fo = SkolemApp(SkolemFn(eid, part.name), o)
    return Prop(
        ante=Conjunction(()),
        cons=Conjunction((Atom(HAVE, (o, fo)), Atom(adj, (fo,)), Atom(part, (fo,)))),
    )


def parse(surface: str, lexicon: Lexicon, demonstratum: str | None = None):
    """Parse one template sentence into a Prop, Ques or feedback token."""
    s = surface.strip()

    if _CORRECT.match(s):
        return CORRECT
    if _NOT_SURE.match(s):
        return NOT_SURE
    if _WHAT_IS.match(s):
        eid = _need_demo(surface, demonstratum)
        prop = Prop(
            ante=Conjunction(()),
            cons=Conjunction((Atom(cls_pred("P"), (Const(eid),)),)),
        )
        return Ques("wh", prop=prop, var="P")

    m = _IS_NOT_A.match(s)
    if m:
        eid = _need_demo(surface, demonstratum)
        return _ground_class_prop(_noun_pred(lexicon, m.group(2)), eid, True)
    m = _IS_A.match(s)
    if m:
        eid = _need_demo(surface, demonstratum)
        return _ground_class_prop(_noun_pred(lexicon, m.group(2)), eid, False)
    m = _IS_THIS.match(s)
    if m:
        eid = _need_demo(surface, demonstratum)
        prop = _ground_class_prop(_noun_pred(lexicon, m.group(2)), eid, False)
        return Ques("polar", prop=prop)
    m = _HAS_A.match(s)
    if m:
        eid = _need_demo(surface, demonstratum)
        adj = _adj_pred(lexicon, m.group(2))
        part = _noun_pred(lexicon, m.group(3))
        return _ground_part_prop(eid, adj, part)
    m = _HOW_DIFF.match(s)
    if m:
        n1 = singularize(m.group(1)[:1].lower() + m.group(1)[1:])
        n2 = singularize(m.group(2))
        return Ques("conceptDiff", pair=(_noun_pred(lexicon, n1), _noun_pred(lexicon, n2)))
    m = _GENERIC.match(s)
    if m:
        subj = singularize(m.group(1)[:1].lower() + m.group(1)[1:])
        cls = _noun_pred(lexicon, subj)
        adj = _adj_pred(lexicon, m.group(2))
        part = _noun_pred(lexicon, singularize(m.group(3)))
        return skolemize_part_description(cls, adj, part)

    raise ParseError(surface, s)


# ---------------------------------------------------------------------------
# realization


def _surface_for(lexicon: Lexicon, pred: PredicateSym) -> str:
    entry = lexicon.lookup_pred(pred.name)
    if entry is None:
        raise RealizeError(f"predicate {pred.name} has no lexicon entry")
    return entry.surface


def _classify_prop(prop: Prop) -> str:
    if prop.generic:
        return "generic"
    if len(prop.ante) == 0 and len(prop.cons) == 1:
        return "instance"
    if len(prop.ante) == 0 and len(prop.cons) == 3 and not prop.cons_negated:
        return "has-part"
    raise RealizeError(f"prop outside the template grammar: {prop}")


def _split_skolem_cons(cons: Conjunction):
    """(adj, part) predicates of a have/attr/part consequent."""
    adj = part = None
    for atom in cons:
        if atom.pred == HAVE:
            continue
        if atom.pred.kind == ATTRIBUTE:
            adj = atom.pred
        elif atom.pred.kind == CLASS:
            part = atom.pred
    if adj is None or part is None:
        raise RealizeError(f"consequent is not an attribute-part description: {cons}")
    return adj, part


def realize(form, lexicon: Lexicon) -> str:
    """Render a logical form as its unique template sentence."""
    if isinstance(form, str):
        if form == CORRECT:
            return "Correct."
        if form == NOT_SURE:
            return "I am not sure."
        raise RealizeError(f"unknown feedback token: {form!r}")

    if isinstance(form, Ques):
        if form.kind == "wh":
            return "What is this?"
        if form.kind == "polar":
            noun = _surface_for(lexicon, form.prop.cons.atoms[0].pred)
            return f"Is this {article(noun)} {noun}?"
        n1 = pluralize(_surface_for(lexicon, form.pair[0]))
        n2 = pluralize(_surface_for(lexicon, form.pair[1]))
        return f"How are {n1} and {n2} different?"

    shape = _classify_prop(form)
    if shape == "instance":
        pred = form.cons.atoms[0].pred
        if pred.kind not in (CLASS,):
            raise RealizeError(f"instance template needs a class predicate: {pred.name}")
        noun = _surface_for(lexicon, pred)
        neg = "not " if form.cons_negated else ""
        return f"This is {neg}{article(noun)} {noun}."
    if shape == "has-part":
        adj, part = _split_skolem_cons(form.cons)
        adj_s, part_s = _surface_for(lexicon, adj), _surface_for(lexicon, part)
        return f"This has {article(adj_s)} {adj_s} {part_s}."

    cls = form.ante.atoms[0].pred
    adj, part = _split_skolem_cons(form.cons)
    subj = pluralize(_surface_for(lexicon, cls))
    return (
        f"{_capitalize(subj)} have {_surface_for(lexicon, adj)} "
        f"{pluralize(_surface_for(lexicon, part))}."
    )
