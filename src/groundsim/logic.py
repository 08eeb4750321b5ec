"""First-order fragment for dialogue propositions and questions.

Atoms range over object classes, attributes and binary relations; generic
statements are antecedent => consequent propositions with an optional
negation flag on the whole consequent conjunction. Part descriptions such
as "brandy glasses have short stems" are stored in skolemized form:
cls(O) => have(O, f(O)), short(f(O)), stem(f(O)). The forms of the
dialogue's template sentences are built and read here, and only here.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, replace

CLASS = "class"
ATTRIBUTE = "attribute"
RELATION = "relation"

_CANON_VARS = "OPQRSTUVWXYZ"
_SKOLEM_LETTERS = "fghijk"


@dataclass(frozen=True)
class PredicateSym:
    name: str
    arity: int = 1
    kind: str = CLASS

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError(f"arity must be >= 1: {self.name}")
        if self.kind == RELATION and self.arity != 2:
            raise ValueError(f"relation predicate {self.name} must be binary")


def cls_pred(name: str) -> PredicateSym:
    return PredicateSym(name, 1, CLASS)


def attr_pred(name: str) -> PredicateSym:
    return PredicateSym(name, 1, ATTRIBUTE)


def rel_pred(name: str) -> PredicateSym:
    return PredicateSym(name, 2, RELATION)


HAVE = rel_pred("have")


@dataclass(frozen=True)
class Const:
    ident: str

    def __str__(self):
        return self.ident


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class SkolemFn:
    """Skolem function id, derived deterministically from (class, part)."""

    cls: str
    part: str


@dataclass(frozen=True)
class SkolemApp:
    fn: SkolemFn
    arg: "Term"

    def __post_init__(self):
        if isinstance(self.arg, SkolemApp):
            raise ValueError("skolem applications nest to depth 1")

    def __str__(self):
        return f"sk_{self.fn.cls}_{self.fn.part}({self.arg})"


Term = Const | Var | SkolemApp


@dataclass(frozen=True)
class Atom:
    """`pred(args)`. The hash is computed once, at construction: it is the
    value a frozen dataclass would compute, `hash((pred, args))`, so set and
    dict orders are unchanged. It is not pickled, since string hashes differ
    between interpreters; unpickling rebuilds the atom and its hash."""

    pred: PredicateSym
    args: tuple[Term, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.args) != self.pred.arity:
            raise ValueError(
                f"{self.pred.name}/{self.pred.arity} applied to {len(self.args)} args"
            )
        object.__setattr__(self, "_hash", hash((self.pred, self.args)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Atom, (self.pred, self.args)

    def __str__(self):
        return f"{self.pred.name}({','.join(map(str, self.args))})"

    def is_ground(self) -> bool:
        return all(_term_ground(t) for t in self.args)


@dataclass(frozen=True)
class Prop:
    """Ante => Cons proposition; `generic` marks the G quantifier. Each side
    is a conjunction, held as a tuple of atoms."""

    ante: tuple[Atom, ...]
    cons: tuple[Atom, ...]
    generic: bool = False
    cons_negated: bool = False

    def __post_init__(self):
        if len(self.cons) == 0:
            raise ValueError("consequent may not be empty")
        if self.generic:
            if not set(variables(self.ante)) & set(variables(self.cons)):
                raise ValueError("generic prop must share a variable between ante and cons")
        else:
            for atom in (*self.ante, *self.cons):
                if not atom.is_ground():
                    raise ValueError("non-generic prop must be ground")


@dataclass(frozen=True)
class Ques:
    """polar(?psi) | wh(?lX.psi) | conceptDiff(p1, p2)."""

    kind: str  # "polar" | "wh" | "conceptDiff"
    prop: Prop | None = None
    var: str | None = None
    pair: tuple[PredicateSym, PredicateSym] | None = None

    def __post_init__(self):
        if self.kind == "conceptDiff":
            p1, p2 = self.pair
            if p1.kind != CLASS or p2.kind != CLASS:
                raise ValueError("conceptDiff arguments must be object-class predicates")


def _term_ground(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    if isinstance(t, SkolemApp):
        return _term_ground(t.arg)
    return True


def variables(*conjs: Iterable[Atom]) -> list[str]:
    """Variable names in order of first appearance, skolem arguments included."""
    order: list[str] = []
    for conj in conjs:
        for atom in conj:
            for t in atom.args:
                v = t.arg if isinstance(t, SkolemApp) else t
                if isinstance(v, Var) and v.name not in order:
                    order.append(v.name)
    return order


# ---------------------------------------------------------------------------
# substitution


def _subst_term(t: Term, binding: dict[str | SkolemFn, Term]) -> Term:
    if isinstance(t, Var) and t.name in binding:
        return binding[t.name]
    if isinstance(t, SkolemApp):
        if t.fn in binding:
            return binding[t.fn]
        inner = _subst_term(t.arg, binding)
        if isinstance(inner, SkolemApp):
            raise ValueError("binding would nest skolem applications")
        return SkolemApp(t.fn, inner)
    return t


def subst_atom(atom: Atom, binding: dict[str | SkolemFn, Term]) -> Atom:
    """Bind variables by name and skolem functions: every application of a
    bound function becomes the function's term, whatever its argument."""
    return Atom(atom.pred, tuple(_subst_term(t, binding) for t in atom.args))


def substitute(p: Prop, binding: dict[str, Term]) -> Prop:
    """Replace every bound variable, including inside skolem applications."""
    ante = tuple(subst_atom(a, binding) for a in p.ante)
    cons = tuple(subst_atom(a, binding) for a in p.cons)
    generic = p.generic and bool(variables(ante, cons))
    return replace(p, ante=ante, cons=cons, generic=generic)


# ---------------------------------------------------------------------------
# predicate swap and implicatures


def _swap_name(name: str, a: PredicateSym, b: PredicateSym) -> str:
    if name == a.name:
        return b.name
    if name == b.name:
        return a.name
    return name


def swap_predicates(p: Prop, a: PredicateSym, b: PredicateSym) -> Prop:
    """p^{a<->b}: every occurrence of a becomes b and vice versa (involution)."""
    if a.arity != b.arity or a.kind != b.kind:
        raise ValueError(f"cannot swap {a.name} with {b.name}: arity/kind mismatch")

    def swap_term(t: Term) -> Term:
        if isinstance(t, SkolemApp):
            fn = SkolemFn(_swap_name(t.fn.cls, a, b), _swap_name(t.fn.part, a, b))
            return SkolemApp(fn, t.arg)
        return t

    def swap_atom(atom: Atom) -> Atom:
        pred = atom.pred
        if pred == a:
            pred = b
        elif pred == b:
            pred = a
        return Atom(pred, tuple(swap_term(t) for t in atom.args))

    return replace(p, ante=tuple(map(swap_atom, p.ante)), cons=tuple(map(swap_atom, p.cons)))


def derive_neg_implicature(psi: Prop, p: PredicateSym, q: PredicateSym) -> Prop:
    """Negative implicature of a contrastive answer: Ante(psi^{p<->q}) => ~Cons(psi^{p<->q})."""
    if not psi.generic:
        raise ValueError("negative implicature requires a generic prop")
    in_ante = {a.pred for a in psi.ante}
    if (p in in_ante) == (q in in_ante):
        raise ValueError("exactly one of the swapped predicates must occur in the antecedent")
    swapped = swap_predicates(psi, p, q)
    return replace(swapped, cons_negated=not swapped.cons_negated)


# ---------------------------------------------------------------------------
# canonicalization and structural comparison


def canonicalize(p: Prop) -> Prop:
    """Rename variables to canonical names (O, P, ...) in order of appearance."""
    order = variables(p.ante, p.cons)
    if len(order) > len(_CANON_VARS):
        raise ValueError("too many variables to canonicalize")
    return substitute(p, {name: Var(_CANON_VARS[i]) for i, name in enumerate(order)})


def _conj_key(conj: tuple[Atom, ...], fn_ids: dict[SkolemFn, int]):
    """Order-insensitive key; skolem fn ids canonicalized by appearance."""

    def term_key(t: Term):
        if isinstance(t, Const):
            return ("c", t.ident)
        if isinstance(t, Var):
            return ("v", t.name)
        if t.fn not in fn_ids:
            fn_ids[t.fn] = len(fn_ids)
        return ("s", fn_ids[t.fn], term_key(t.arg))

    keys = [
        (a.pred.name, a.pred.arity, a.pred.kind, tuple(term_key(t) for t in a.args))
        for a in conj
    ]
    return tuple(sorted(keys))


def prop_key(p: Prop):
    """Structural identity key: canonical variables, canonical skolem ids,
    order-insensitive conjunctions."""
    q = canonicalize(p)
    fn_ids: dict[SkolemFn, int] = {}
    return (q.generic, q.cons_negated, _conj_key(q.ante, fn_ids), _conj_key(q.cons, fn_ids))


def cons_key(p: Prop):
    """Identity of the consequent alone, for abductive grouping."""
    q = canonicalize(p)
    return (q.cons_negated, _conj_key(q.cons, {}))


def contradicts(p1: Prop, p2: Prop) -> bool:
    """True iff antecedents match up to renaming and the consequents are exact
    polarity-negations of each other. Deliberately weak: partial conjunction
    overlap does not count."""
    if not (p1.generic and p2.generic):
        raise ValueError("contradicts is defined for generic props")
    return prop_key(p1) == prop_key(replace(p2, cons_negated=not p2.cons_negated))


# ---------------------------------------------------------------------------
# the dialogue's sentence forms


def instance_prop(pred: PredicateSym, eid: str, negated: bool = False) -> Prop:
    """'This is (not) an X.': pred(eid), or its negation."""
    return Prop(ante=(), cons=(Atom(pred, (Const(eid),)),), cons_negated=negated)


def what_is(eid: str) -> Ques:
    """'What is this?': ?lP.P(eid)."""
    return Ques("wh", prop=instance_prop(cls_pred("P"), eid), var="P")


def instance_atom(form) -> Atom | None:
    """The atom of a ground one-atom prop, else None."""
    one_atom = isinstance(form, Prop) and not form.generic and len(form.ante) == 0
    return form.cons[0] if one_atom and len(form.cons) == 1 else None


def part_cons(
    subject: Term, fn: SkolemFn, attr: PredicateSym, part: PredicateSym
) -> tuple[Atom, Atom, Atom]:
    """have(s, f(s)), attr(f(s)), part(f(s)): s has an attr part."""
    fs = SkolemApp(fn, subject)
    return Atom(HAVE, (subject, fs)), Atom(attr, (fs,)), Atom(part, (fs,))


def part_properties(cons: tuple[Atom, ...]) -> list[tuple[PredicateSym, PredicateSym]]:
    """(attribute, part) pairs of a skolemized consequent: each attribute of a
    skolem term with that term's part, in order of appearance."""
    slots: dict[SkolemFn, tuple[list, list]] = {}
    for atom in cons:
        for t in atom.args:
            if isinstance(t, SkolemApp):
                attrs, parts = slots.setdefault(t.fn, ([], []))
                if atom.pred.kind == ATTRIBUTE:
                    attrs.append(atom.pred)
                elif atom.pred.kind == CLASS:
                    parts.append(atom.pred)
    return [(a, parts[-1]) for attrs, parts in slots.values() if parts for a in attrs]


def skolemize_part_description(
    cls: PredicateSym, attr: PredicateSym, part: PredicateSym
) -> Prop:
    """G O. cls(O) => have(O, f(O)), attr(f(O)), part(f(O))."""
    if cls.kind != CLASS or part.kind != CLASS or attr.kind != ATTRIBUTE:
        raise ValueError("expected (object-class, attribute, object-class)")
    o = Var("O")
    return Prop(
        ante=(Atom(cls, (o,)),),
        cons=part_cons(o, SkolemFn(cls.name, part.name), attr, part),
        generic=True,
    )


# ---------------------------------------------------------------------------
# text rendering (debug dumps, transcripts)


def _render_term(t: Term, fn_letters: dict[SkolemFn, str]) -> str:
    if isinstance(t, SkolemApp):
        if t.fn not in fn_letters:
            fn_letters[t.fn] = _SKOLEM_LETTERS[len(fn_letters) % len(_SKOLEM_LETTERS)]
        return f"{fn_letters[t.fn]}({_render_term(t.arg, fn_letters)})"
    return str(t)


def _render_conj(conj: tuple[Atom, ...], fn_letters: dict[SkolemFn, str]) -> str:
    return ", ".join(
        f"{a.pred.name}({','.join(_render_term(t, fn_letters) for t in a.args)})"
        for a in conj
    )


def prop_to_text(p: Prop) -> str:
    fn_letters: dict[SkolemFn, str] = {}
    cons = _render_conj(p.cons, fn_letters)
    if p.cons_negated:
        cons = f"~({cons})"
    prefix = f"G {' '.join(variables(p.ante, p.cons))}. " if p.generic else ""
    if len(p.ante) == 0:
        return f"{prefix}{cons}"
    ante = _render_conj(p.ante, fn_letters)
    return f"{prefix}{ante} => {cons}"


def ques_to_text(q: Ques) -> str:
    if q.kind == "polar":
        return f"?{prop_to_text(q.prop)}"
    if q.kind == "wh":
        return f"?l{q.var}.{prop_to_text(q.prop)}"
    p1, p2 = q.pair
    return f"?conceptDiff({p1.name},{p2.name})"


def form_to_text(form) -> str:
    if isinstance(form, Prop):
        return prop_to_text(form)
    if isinstance(form, Ques):
        return ques_to_text(form)
    return str(form)
