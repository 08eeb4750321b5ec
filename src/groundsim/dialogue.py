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
    CLASS,
    Conjunction,
    Const,
    PredicateSym,
    Prop,
    Ques,
    SkolemFn,
    attr_pred,
    cls_pred,
    form_to_text,
    instance_atom,
    instance_prop,
    part_cons,
    part_properties,
    skolemize_part_description,
    what_is,
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


_IS_A = re.compile(r"^This is (not )?(a|an) (.+)\.$")
_HAS_A = re.compile(r"^This has (a|an) ([a-z]+) ([a-z]+)\.$")
_GENERIC = re.compile(r"^(.+) have ([a-z]+) ([a-z]+)\.$")
_WHAT_IS = re.compile(r"^What is this\?$")
_IS_THIS = re.compile(r"^Is this (a|an) (.+)\?$")
_HOW_DIFF = re.compile(r"^How are (.+) and (.+) different\?$")
_CORRECT = re.compile(r"^Correct\.$")
_NOT_SURE = re.compile(r"^I am not sure\.$")


def _pred(lexicon: Lexicon, surface: str, pos: str) -> PredicateSym:
    """The predicate of a surface with part of speech `pos`: a class/part
    predicate for a singular "noun", an attribute predicate for an "adj".
    Inserts a neologism when unknown."""
    entry = lexicon.lookup_surface(surface, pos)
    if entry is not None:
        return entry.pred
    pred = (attr_pred if pos == "adj" else cls_pred)(pred_name_for(surface))
    lexicon.add(surface, pos, pred)
    return pred


def _need_demo(surface: str, demonstratum: str | None) -> str:
    if demonstratum is None:
        raise ParseError(surface, "this")
    return demonstratum


def _ground_part_prop(eid: str, adj: PredicateSym, part: PredicateSym) -> Prop:
    """'This has a short stem.' read existentially via a demonstratum-keyed
    skolem constant."""
    cons = part_cons(Const(eid), SkolemFn(eid, part.name), adj, part)
    return Prop(ante=Conjunction(()), cons=cons)


def parse(surface: str, lexicon: Lexicon, demonstratum: str | None = None):
    """Parse one template sentence into a Prop, Ques or feedback token."""
    s = surface.strip()

    if _CORRECT.match(s):
        return CORRECT
    if _NOT_SURE.match(s):
        return NOT_SURE
    if _WHAT_IS.match(s):
        return what_is(_need_demo(surface, demonstratum))

    m = _IS_A.match(s)
    if m:
        eid = _need_demo(surface, demonstratum)
        pred = _pred(lexicon, m.group(3), "noun")
        return instance_prop(pred, eid, negated=m.group(1) is not None)
    m = _IS_THIS.match(s)
    if m:
        eid = _need_demo(surface, demonstratum)
        return Ques("polar", prop=instance_prop(_pred(lexicon, m.group(2), "noun"), eid))
    m = _HAS_A.match(s)
    if m:
        eid = _need_demo(surface, demonstratum)
        adj = _pred(lexicon, m.group(2), "adj")
        part = _pred(lexicon, m.group(3), "noun")
        return _ground_part_prop(eid, adj, part)
    m = _HOW_DIFF.match(s)
    if m:
        n1 = singularize(m.group(1)[:1].lower() + m.group(1)[1:])
        n2 = singularize(m.group(2))
        return Ques("conceptDiff", pair=(_pred(lexicon, n1, "noun"), _pred(lexicon, n2, "noun")))
    m = _GENERIC.match(s)
    if m:
        subj = singularize(m.group(1)[:1].lower() + m.group(1)[1:])
        cls = _pred(lexicon, subj, "noun")
        adj = _pred(lexicon, m.group(2), "adj")
        part = _pred(lexicon, singularize(m.group(3)), "noun")
        return skolemize_part_description(cls, adj, part)

    raise ParseError(surface, s)


# ---------------------------------------------------------------------------
# realization


def _surface_for(lexicon: Lexicon, pred: PredicateSym) -> str:
    entry = lexicon.lookup_pred(pred.name)
    if entry is None:
        raise RealizeError(f"predicate {pred.name} has no lexicon entry")
    return entry.surface


def _noun_phrase(lexicon: Lexicon, prop: Prop) -> str:
    """'a brandy glass', for the class atom of a one-atom prop."""
    atom = instance_atom(prop)
    if atom is None or atom.pred.kind != CLASS:
        raise RealizeError(f"instance template needs one class atom: {prop}")
    noun = _surface_for(lexicon, atom.pred)
    return f"{article(noun)} {noun}"


def _part_surfaces(lexicon: Lexicon, prop: Prop) -> tuple[str, str]:
    """(adjective, part noun) of a consequent describing one attribute of one part."""
    pairs = part_properties(prop.cons)
    if len(pairs) != 1:
        raise RealizeError(f"consequent is not one attribute-part description: {prop.cons}")
    return _surface_for(lexicon, pairs[0][0]), _surface_for(lexicon, pairs[0][1])


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
            return f"Is this {_noun_phrase(lexicon, form.prop)}?"
        n1 = pluralize(_surface_for(lexicon, form.pair[0]))
        n2 = pluralize(_surface_for(lexicon, form.pair[1]))
        return f"How are {n1} and {n2} different?"

    if form.generic:
        if form.cons_negated:
            raise RealizeError(f"a negated generic has no template sentence: {form}")
        subj = pluralize(_surface_for(lexicon, form.ante.atoms[0].pred))
        adj_s, part_s = _part_surfaces(lexicon, form)
        return f"{_capitalize(subj)} have {adj_s} {pluralize(part_s)}."
    if instance_atom(form) is not None:
        neg = "not " if form.cons_negated else ""
        return f"This is {neg}{_noun_phrase(lexicon, form)}."
    if len(form.ante) == 0 and len(form.cons) == 3 and not form.cons_negated:
        adj_s, part_s = _part_surfaces(lexicon, form)
        return f"This has {article(adj_s)} {adj_s} {part_s}."
    raise RealizeError(f"prop outside the template grammar: {form}")
