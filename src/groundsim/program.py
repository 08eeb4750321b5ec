"""Weighted normal-logic programs: rule representation, text format, grounding.

Supported fragment (all the reasoner ever constructs): weighted ground facts,
HARD definite auxiliary rules, and weighted/HARD integrity constraints. A
consequent with skolem terms is carried through lifted rules as a BodyGroup
and compiled at grounding time into one auxiliary atom plus HARD definite
rules, one per candidate part.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .logic import (
    Atom,
    Const,
    PredicateSym,
    SkolemApp,
    Var,
    cls_pred,
    rel_pred,
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
    plus one bit per rule group), has more atoms than the bound."""


def logit(s: float) -> float:
    """ln(s / (1-s)), with s clamped to [eps, 1-eps]."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"probability out of range: {s}")
    s = min(max(s, LOGIT_EPS), 1.0 - LOGIT_EPS)
    return math.log(s / (1.0 - s))


def sigmoid(w: float) -> float:
    if w >= 0:
        return 1.0 / (1.0 + math.exp(-w))
    e = math.exp(w)
    return e / (1.0 + e)


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

    def is_definite(self) -> bool:
        return self.head is not None and (self.pos_body or self.neg_body)

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


_ATOM_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\(([^()]*)\))?$")


def _parse_term(tok: str):
    tok = tok.strip()
    if tok and tok[0].isupper():
        return Var(tok)
    return Const(tok)


def parse_atom(s: str, kinds: dict[str, PredicateSym] | None = None) -> Atom:
    m = _ATOM_RE.match(s.strip())
    if not m:
        raise ProgramError(f"cannot parse atom: {s!r}")
    name, argstr = m.group(1), m.group(2)
    args = tuple(_parse_term(t) for t in argstr.split(",")) if argstr else ()
    if not args:
        raise ProgramError(f"propositional atoms not supported: {s!r}")
    if kinds and name in kinds:
        pred = kinds[name]
    elif len(args) == 2:
        pred = rel_pred(name)
    else:
        pred = cls_pred(name)
    return Atom(pred, args)


def parse_program(text: str, kinds: dict[str, PredicateSym] | None = None) -> WeightedProgram:
    """Parse the one-rule-per-line text format (ground or simple lifted rules;
    body groups are not parsed back)."""
    prog = WeightedProgram()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        try:
            wstr, rest = line.split("|", 1)
        except ValueError:
            raise ProgramError(f"line {lineno}: missing weight separator")
        weight = HARD if wstr.strip() == "#hard" else float(wstr)
        rest = rest.strip()
        if not rest.endswith("."):
            raise ProgramError(f"line {lineno}: missing terminating period")
        rest = rest[:-1].strip()
        if ":-" in rest:
            head_s, body_s = rest.split(":-", 1)
            head = parse_atom(head_s, kinds) if head_s.strip() else None
            pos, neg = [], []
            for part in _split_body(body_s):
                part = part.strip()
                if part.startswith("not "):
                    neg.append(parse_atom(part[4:], kinds))
                else:
                    pos.append(parse_atom(part, kinds))
            prog.add(WeightedRule(weight, head, tuple(pos), tuple(neg)))
        else:
            prog.add(WeightedRule(weight, parse_atom(rest, kinds)))
    return prog


def _split_body(s: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return parts


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
            atom = subst_atom(item, binding)
            if not atom.is_ground():
                raise ProgramError(f"unrestricted variable in {atom}")
            return atom
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
