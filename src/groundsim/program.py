"""Weighted normal-logic programs: rule representation, a text dump, grounding.

Supported fragment (all the reasoner ever constructs): weighted ground facts,
HARD definite aux rules whose bodies hold only base atoms in no constraint
and no hard fact, and weighted/HARD integrity constraints; `exact._classify`
enforces it for every solver. A skolemized consequent is carried through
lifted rules as a BodyGroup and compiled at grounding time into one aux
atom plus HARD definite rules, one per candidate part, over the part's atoms.

The text format (`program_to_text`) is write-only: `--dump-program` writes
it for audit, and no run reads a program back from text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .logic import (
    Atom,
    Const,
    SkolemApp,
    cls_pred,
    subst_atom,
    variables,
)

HARD = None  # weight sentinel
LOGIT_EPS = 1e-6


class ProgramError(ValueError):
    pass


class NoAdmissibleWorldError(ProgramError):
    """The HARD core of the program admits no world."""


class EnumerationBoundError(ProgramError):
    """A component too large to enumerate within the solver's bound: one of
    its stage-1 blocks, or its stage-2 table (the base atoms outside stage 1
    plus one bit per derived atom), has more atoms than the bound."""


def logit(s: float) -> float:
    """ln(s / (1-s)), with s clamped to [eps, 1-eps]."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"probability out of range: {s}")
    s = min(max(s, LOGIT_EPS), 1.0 - LOGIT_EPS)
    return math.log(s / (1.0 - s))


@dataclass(frozen=True)
class BodyGroup:
    """A skolemized conjunction used as a single body unit of a lifted rule.

    Compiled during grounding into aux_<preds>(o) plus HARD definite rules
    ranging over the object's candidate parts.
    """

    atoms: tuple[Atom, ...]

    @property
    def aux_name(self) -> str:
        return "aux_" + "_".join(sorted(a.pred.name for a in self.atoms))

    def skolem_fns(self):
        fns = []
        for a in self.atoms:
            for t in a.args:
                if isinstance(t, SkolemApp) and t.fn not in fns:
                    fns.append(t.fn)
        return fns


BodyItem = Atom | BodyGroup


def _item_atoms(item: BodyItem) -> tuple[Atom, ...]:
    return item.atoms if isinstance(item, BodyGroup) else (item,)


@dataclass(frozen=True)
class WeightedRule:
    weight: float | None  # None = HARD
    head: Atom | None  # None = integrity constraint
    pos_body: tuple[BodyItem, ...] = ()
    neg_body: tuple[BodyItem, ...] = ()

    def is_fact(self) -> bool:
        return self.head is not None and not self.pos_body and not self.neg_body

    def is_constraint(self) -> bool:
        return self.head is None

    def atoms(self) -> list[BodyItem]:
        """The head, if any, then the body items."""
        return ([self.head] if self.head is not None else []) + [*self.pos_body, *self.neg_body]


@dataclass
class WeightedProgram:
    rules: list[WeightedRule] = field(default_factory=list)

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)

    def __add__(self, other: "WeightedProgram") -> "WeightedProgram":
        return WeightedProgram(self.rules + other.rules)

    def add(self, rule: WeightedRule):
        self.rules.append(rule)

    def atom_universe(self) -> set[Atom]:
        atoms: set[Atom] = set()
        for r in self.rules:
            for item in r.atoms():
                atoms.update(_item_atoms(item))
        return atoms


# ---------------------------------------------------------------------------
# text format: `<weight>| <head> :- <posbody>, not <negbody>.`  (#hard for HARD)


def _item_str(item: BodyItem, negated: bool) -> str:
    if isinstance(item, BodyGroup):
        inner = " & ".join(map(str, item.atoms))
        s = "{" + inner + "}"
    else:
        s = str(item)
    return f"not {s}" if negated else s


def rule_to_text(r: WeightedRule) -> str:
    w = "#hard" if r.weight is HARD else f"{r.weight:.6f}"
    body = [_item_str(it, False) for it in r.pos_body]
    body += [_item_str(it, True) for it in r.neg_body]
    head = str(r.head) if r.head is not None else ""
    if body:
        sep = " " if head else ""
        return f"{w}| {head}{sep}:- {', '.join(body)}."
    return f"{w}| {head}."


def program_to_text(p: WeightedProgram) -> str:
    return "\n".join(rule_to_text(r) for r in p.rules) + ("\n" if p.rules else "")


# ---------------------------------------------------------------------------
# grounding


def ground(
    program: WeightedProgram,
    entities: list[str],
    part_candidates: dict[str, list[str]] | None = None,
) -> WeightedProgram:
    """Instantiate lifted rules per entity and compile BodyGroups into aux
    atoms backed by HARD definite rules over candidate parts."""
    part_candidates = part_candidates or {}
    out = WeightedProgram()
    aux_rules_emitted: set[tuple] = set()

    for rule in program:
        vs = variables(*map(_item_atoms, rule.atoms()))
        if not vs:
            out.add(_ground_rule(rule, None, {}, part_candidates, out, aux_rules_emitted))
            continue
        if len(vs) > 1:
            raise ProgramError(f"rule has multiple free variables: {sorted(vs)}")
        for ent in sorted(entities):
            binding = {vs[0]: Const(ent)}
            out.add(_ground_rule(rule, ent, binding, part_candidates, out, aux_rules_emitted))
    return out


def _ground_rule(rule, ent, binding, part_candidates, out, emitted) -> WeightedRule:
    """`rule` under `binding`, its body groups compiled to aux atoms of `ent`;
    each aux rule is emitted to `out` once."""

    def ground_item(item: BodyItem) -> Atom:
        if isinstance(item, Atom):
            return subst_atom(item, binding)
        if ent is None:
            raise ProgramError("body group outside any entity binding")
        aux = Atom(cls_pred(item.aux_name), (Const(ent),))
        fns = item.skolem_fns()
        # a group is the consequent of one part description: one skolem function
        if len(fns) > 1:
            raise ProgramError(f"body group with {len(fns)} skolem functions")
        if fns:
            bindings = [{**binding, fns[0]: Const(c)} for c in part_candidates.get(ent, [])]
        else:
            bindings = [binding]
        for b in bindings:
            body = tuple(subst_atom(a, b) for a in item.atoms)
            if (aux, body) not in emitted:
                emitted.add((aux, body))
                out.add(WeightedRule(HARD, aux, body, ()))
        return aux

    return WeightedRule(
        rule.weight,
        subst_atom(rule.head, binding) if rule.head is not None else None,
        tuple(ground_item(i) for i in rule.pos_body),
        tuple(ground_item(i) for i in rule.neg_body),
    )
