"""Random ground-program generators shared by the solver test modules, the
marginals of every atom of a program by variable elimination, the uncached
restriction of a program to its query atoms' components, and a reader for
the ground rules that `program_to_text` writes (golden components, the
corpus of compiled programs and `--dump-program` files)."""

import math

import numpy as np

from groundsim.bp import build_factor_graph
from groundsim.exact import MarginalTable, union_find
from groundsim.logic import Atom, Const, attr_pred, cls_pred, rel_pred
from groundsim.program import HARD, NoAdmissibleWorldError, WeightedProgram, WeightedRule, logit
from groundsim.reasoner import UnknownPredicateError


def variable_elimination(prog: WeightedProgram) -> MarginalTable:
    """log Z and the marginal of every atom of `prog` by exact variable
    elimination (Zhang & Poole, 1994) over the factor graph that
    `bp.build_factor_graph` builds; it shares no arithmetic with `exact.run`.

    Each factor is shifted by its maximum and exponentiated; `bp`'s finite
    stand-in for log 0 becomes an exact 0. Each atom also gets a selector
    factor, ones, or (0, 1) to clamp the atom true. The factors of each
    connected component are contracted to a scalar by `np.einsum`, in the
    one order `np.einsum_path`'s greedy search picks: with no atom clamped
    for Z, and with each atom clamped for its marginal, Z(atom true) / Z."""
    variables, factors = build_factor_graph(prog)
    find = union_find([f.vars for f in factors])
    components: dict = {}
    for f in factors:
        components.setdefault(find(f.vars[0]), []).append(f)
    log_z, probs = 0.0, {}
    for group in components.values():
        atoms = list(dict.fromkeys(v for f in group for v in f.vars))
        label = {a: i for i, a in enumerate(atoms)}
        operands = []
        for f in group:
            shift = f.table.max()
            log_z += shift
            operands += [np.exp(f.table - shift), [label[v] for v in f.vars]]
        selectors = [np.ones(2) for _ in atoms]
        for i, selector in enumerate(selectors):
            operands += [selector, [i]]
        path, _ = np.einsum_path(*operands, [], optimize="greedy")
        z = float(np.einsum(*operands, [], optimize=path))
        if z == 0.0:
            raise NoAdmissibleWorldError("hard core admits no world")
        log_z += math.log(z)
        for a, selector in zip(atoms, selectors):
            selector[0] = 0.0  # clamp the atom true
            probs[a] = float(np.einsum(*operands, [], optimize=path)) / z
            selector[0] = 1.0
    assert set(probs) == set(variables)
    return MarginalTable(probs, log_z=log_z)


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
    definite aux rules and soft/HARD constraints over aux atoms and the base
    atoms in no aux body."""
    n = int(rng.integers(1, max_base + 1))
    atoms = [base_atom(i) for i in range(n)]
    prog = WeightedProgram()
    for a in atoms:
        if rng.random() < 0.9:
            prog.add(WeightedRule(float(rng.normal() * 2.0), a))

    n_aux = int(rng.integers(0, 3))
    aux, in_bodies = [], set()
    for j in range(n_aux):
        head = aux_atom(j)
        aux.append(head)
        for _ in range(int(rng.integers(1, 3))):
            size = int(rng.integers(1, min(3, n) + 1))
            body = tuple(
                atoms[k] for k in rng.choice(n, size=size, replace=False)
            )
            in_bodies.update(body)
            prog.add(WeightedRule(HARD, head, body, ()))

    pool = aux + [a for a in atoms if a not in in_bodies]
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
    """Programs off the scene shape: up to four aux atoms over a few body
    atoms, so that bits can outnumber the stage-1 atoms, with overlapping
    bodies and several rules per head; constraints over aux atoms and over
    base atoms in no body, and sometimes a hard fact on one of those."""
    n = int(rng.integers(2, max_base + 1))
    atoms = [base_atom(i) for i in range(n)]
    prog = WeightedProgram()
    for a in atoms:
        if rng.random() < 0.85:
            prog.add(WeightedRule(float(rng.normal() * 2.0), a))

    body_atoms = atoms[: int(rng.integers(1, n + 1))]
    aux = [aux_atom(j) for j in range(int(rng.integers(1, 5)))]
    for head in aux:
        for _ in range(int(rng.integers(1, 3))):
            picks = rng.choice(len(body_atoms), size=int(rng.integers(1, 3)), replace=True)
            body = tuple(dict.fromkeys(body_atoms[k] for k in picks))
            prog.add(WeightedRule(HARD, head, body, ()))

    free = atoms[len(body_atoms) :]
    pool = aux + free
    for _ in range(int(rng.integers(1, 5))):
        size = int(rng.integers(1, min(3, len(pool)) + 1))
        picked = [pool[k] for k in rng.choice(len(pool), size=size, replace=False)]
        pos = tuple(a for a in picked if rng.random() < 0.5)
        neg = tuple(a for a in picked if a not in pos)
        weight = HARD if rng.random() < 0.1 else float(rng.normal() * 2.0)
        prog.add(WeightedRule(weight, None, pos, neg))
    if free and rng.random() < 0.4:
        prog.add(WeightedRule(HARD, free[int(rng.integers(0, len(free)))]))
    return prog
