"""Random ground-program generators shared by the solver test modules, the
marginals of every atom of a program, the uncached restriction of a program
to its query atoms' components, and a reader for the ground rules that
`program_to_text` writes (golden components and `--dump-program` files)."""

import math

import numpy as np

from groundsim.exact import solve_exact, union_find
from groundsim.logic import Atom, Const, attr_pred, cls_pred, rel_pred
from groundsim.program import HARD, NoAdmissibleWorldError, WeightedProgram, WeightedRule, logit
from groundsim.reasoner import UnknownPredicateError


def all_marginals(prog: WeightedProgram) -> dict[Atom, float]:
    """The marginal of every atom of `prog`: those `solve_exact` returns, and
    for each atom it sums out, Z(prog + the atom as a hard fact) / Z(prog),
    which is 0 when the clamped program admits no world."""
    table = solve_exact(prog)
    probs = dict(table.probs)
    for a in prog.atom_universe() - set(probs):
        try:
            clamped = solve_exact(prog + WeightedProgram([WeightedRule(HARD, a)]))
        except NoAdmissibleWorldError:
            probs[a] = 0.0
        else:
            probs[a] = math.exp(clamped.log_z - table.log_z)
    return probs


def restrict(prog: WeightedProgram, queries: list[Atom]) -> WeightedProgram:
    """Keep only rules in the connected components of the query atoms: the
    uncached reference for the components `reasoner.marginals_for` solves."""
    rule_atoms = [r.atoms() for r in prog]
    find = union_find(rule_atoms)
    roots, missing = set(), []
    for q in queries:
        try:
            roots.add(find(q))
        except KeyError:
            missing.append(q)
    if missing:
        raise UnknownPredicateError(f"atoms unknown to the program: {', '.join(map(str, missing))}")
    return WeightedProgram([r for r, atoms in zip(prog, rule_atoms) if find(atoms[0]) in roots])


def read_ground_program(text: str) -> WeightedProgram:
    """The ground rules of `program_to_text`'s format, one per line; blank
    lines and `# ` header lines are skipped. The text does not record a
    predicate's kind: a unary atom gets a class predicate, a binary one a
    relation predicate."""
    prog = WeightedProgram()
    for line in text.splitlines():
        if not line or line.startswith("# "):
            continue
        weight, rule = line.split("| ", 1)
        head, _, body = (s.strip() for s in rule.removesuffix(".").partition(":-"))
        items = body.split(", ") if body else []
        pos = tuple(_read_atom(b) for b in items if not b.startswith("not "))
        neg = tuple(_read_atom(b[4:]) for b in items if b.startswith("not "))
        w = HARD if weight == "#hard" else float(weight)
        prog.add(WeightedRule(w, _read_atom(head) if head else None, pos, neg))
    return prog


def _read_atom(text: str) -> Atom:
    name, args = text.removesuffix(")").split("(")
    terms = tuple(Const(a) for a in args.split(","))
    return Atom((cls_pred if len(terms) == 1 else rel_pred)(name), terms)


def base_atom(i: int) -> Atom:
    return Atom(cls_pred(f"a{i}"), (Const("o"),))


def aux_atom(i: int) -> Atom:
    return Atom(cls_pred(f"aux{i}"), (Const("o"),))


def random_program(rng: np.random.Generator, max_base: int = 6) -> WeightedProgram:
    """Arbitrary program within the supported fragment: soft facts, HARD
    definite aux rules and soft/HARD constraints over base and aux atoms."""
    n = int(rng.integers(1, max_base + 1))
    atoms = [base_atom(i) for i in range(n)]
    prog = WeightedProgram()
    for a in atoms:
        if rng.random() < 0.9:
            prog.add(WeightedRule(float(rng.normal() * 2.0), a))

    n_aux = int(rng.integers(0, 3))
    aux = []
    for j in range(n_aux):
        head = aux_atom(j)
        aux.append(head)
        for _ in range(int(rng.integers(1, 3))):
            size = int(rng.integers(1, min(3, n) + 1))
            body = tuple(
                atoms[k] for k in rng.choice(n, size=size, replace=False)
            )
            prog.add(WeightedRule(HARD, head, body, ()))

    pool = atoms + aux
    for _ in range(int(rng.integers(0, 4))):
        size = int(rng.integers(1, min(3, len(pool)) + 1))
        picked = [pool[k] for k in rng.choice(len(pool), size=size, replace=False)]
        pos = tuple(a for a in picked if rng.random() < 0.5)
        neg = tuple(a for a in picked if a not in pos)
        weight = HARD if rng.random() < 0.15 else float(rng.normal() * 2.0)
        prog.add(WeightedRule(weight, None, pos, neg))
    return prog


def random_tree_program(rng: np.random.Generator, max_atoms: int = 10) -> WeightedProgram:
    """Facts plus pairwise constraints forming a forest-shaped factor graph
    (each constraint attaches a new atom to an earlier one)."""
    n = int(rng.integers(2, max_atoms + 1))
    atoms = [base_atom(i) for i in range(n)]
    prog = WeightedProgram()
    for a in atoms:
        prog.add(WeightedRule(float(rng.normal() * 2.0), a))
    for i in range(1, n):
        if rng.random() < 0.7:
            j = int(rng.integers(0, i))
            pair = [atoms[i], atoms[j]]
            pos = tuple(a for a in pair if rng.random() < 0.5)
            neg = tuple(a for a in pair if a not in pos)
            if not pos and not neg:
                continue
            weight = HARD if rng.random() < 0.2 else float(rng.normal() * 2.0)
            prog.add(WeightedRule(weight, None, pos, neg))
    return prog


def have_atom(part: int) -> Atom:
    return Atom(rel_pred("have"), (Const("o"), Const(f"o_p{part}")))


def feature_atom(part: int, j: int) -> Atom:
    return Atom(attr_pred(f"f{j}"), (Const(f"o_p{part}"),))


def random_part_program(
    rng: np.random.Generator, max_base: int = 12, attr_counts: tuple[int, ...] | None = None
) -> WeightedProgram:
    """The shape of a grounded scene + KB program for one object: parts with a
    `have` atom and 2-4 attribute atoms each (`attr_counts` fixes them), aux
    atoms that OR over the parts (`aux :- have(o,p), f_j(p), ...`), and
    deductive and abductive constraints over class and aux atoms.

    Every attribute sits in some aux body, so each part is one block of
    1 + attributes atoms for the two-stage solver. About one base atom in
    seven has no fact. Aux atoms with nested feature sets leave some aux
    configurations unreachable."""
    n_cls = int(rng.integers(1, 4))
    if attr_counts is None:
        attr_counts, budget = [], max_base - n_cls
        for _ in range(int(rng.integers(1, 4))):
            if budget < 3:
                break
            attr_counts.append(int(rng.integers(2, min(4, budget - 1) + 1)))
            budget -= 1 + attr_counts[-1]
    classes = [base_atom(i) for i in range(n_cls)]
    prog = WeightedProgram()
    for part, n_attr in enumerate(attr_counts):
        for a in [have_atom(part)] + [feature_atom(part, j) for j in range(n_attr)]:
            if rng.random() >= 0.15:
                prog.add(WeightedRule(float(rng.normal() * 4.0), a))
    for a in classes:
        if rng.random() >= 0.15:
            prog.add(WeightedRule(float(rng.normal() * 2.0), a))

    n_feat = max(attr_counts)
    n_aux = int(rng.integers(1, min(3, n_feat) + 1))
    feats = [{int(rng.integers(0, n_feat))} for _ in range(n_aux)]
    for j in range(n_feat):
        if not any(j in f for f in feats):
            feats[int(rng.integers(0, n_aux))].add(j)
    for t, f in enumerate(feats):
        head = aux_atom(t)
        for part, n_attr in enumerate(attr_counts):
            body = [feature_atom(part, j) for j in sorted(f) if j < n_attr]
            if body:
                prog.add(WeightedRule(HARD, head, (have_atom(part), *body), ()))
        w = logit(float(rng.uniform(0.6, 0.99)))
        c = classes[int(rng.integers(0, n_cls))]
        if rng.random() < 0.7:
            prog.add(WeightedRule(w, None, (c,), (head,)))  # deductive: c -> aux
        else:
            prog.add(WeightedRule(w, None, (c, head), ()))  # deductive: c -> not aux
        explainers = tuple(a for a in classes if rng.random() < 0.6) or (c,)
        prog.add(WeightedRule(w, None, (head,), explainers))  # abductive
    return prog


def random_general_program(rng: np.random.Generator, max_base: int = 6) -> WeightedProgram:
    """Programs off the scene shape: constraints over aux atoms and
    definite-body atoms alike, and hard facts on body atoms. One draw in four
    is wide instead: 23-26 aux atoms, more than `ENUM_BOUND`, with one rule
    each over a few base atoms, where constraints and the hard fact touch only
    aux atoms and `a0`."""
    wide = rng.random() < 0.25
    n = int(rng.integers(2, max_base + 1))
    atoms = [base_atom(i) for i in range(n)]
    prog = WeightedProgram()
    for a in atoms:
        if rng.random() < 0.85:
            prog.add(WeightedRule(float(rng.normal() * 2.0), a))

    aux = [aux_atom(j) for j in range(int(rng.integers(23, 27) if wide else rng.integers(1, 5)))]
    bodies = []
    for j, head in enumerate(aux):
        for _ in range(1 if wide else int(rng.integers(1, 3))):
            body = [atoms[k] for k in rng.choice(n, size=int(rng.integers(1, 3)), replace=True)]
            if wide:
                body[0] = atoms[j % n]  # every base atom sits in some body
            bodies.append(tuple(dict.fromkeys(body)))
            prog.add(WeightedRule(HARD, head, bodies[-1], ()))

    pool = aux + atoms[:1] if wide else aux + atoms
    for _ in range(int(rng.integers(1, 5))):
        size = int(rng.integers(1, min(3, len(pool)) + 1))
        picked = [pool[k] for k in rng.choice(len(pool), size=size, replace=False)]
        pos = tuple(a for a in picked if rng.random() < 0.5)
        neg = tuple(a for a in picked if a not in pos)
        weight = HARD if rng.random() < 0.1 else float(rng.normal() * 2.0)
        prog.add(WeightedRule(weight, None, pos, neg))
    if rng.random() < 0.4:
        in_bodies = [a for body in bodies for a in body if a in atoms]
        forced = atoms[0] if wide else in_bodies[int(rng.integers(0, len(in_bodies)))]
        prog.add(WeightedRule(HARD, forced))
    return prog
