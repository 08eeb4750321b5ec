"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line (also collected into the terminal summary)."""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from conftest import ACCEPTANCE_LINES
from groundsim.agents import (
    LearnerState,
    cancel_scalar_implicatures,
    domain_lexicon,
    learner_integrate_generics,
)
from groundsim.bp import build_factor_graph, is_acyclic, solve_bp
from groundsim.dialogue import CORRECT, NOT_SURE, parse, realize
from groundsim.exact import enumerate_worlds, solve_exact, solve_exact_reference
from groundsim.harness import mean_ci95, run_sequence
from groundsim.logic import (
    HAVE,
    Atom,
    Const,
    Prop,
    Ques,
    SkolemApp,
    SkolemFn,
    Var,
    attr_pred,
    cls_pred,
    prop_key,
    skolemize_part_description,
)
from groundsim.memory import (
    EXPLICIT,
    SCALAR_IMPLICATURE,
    EpisodicMemory,
    EpisodicRecord,
    KnowledgeBase,
    Lexicon,
)
from groundsim.perception import (
    DomainSpec,
    ExemplarBase,
    FeatureModel,
    concept_diff,
    heldout_accuracy,
    init_priors,
)
from groundsim.program import (
    HARD,
    WeightedProgram,
    WeightedRule,
    ground,
    logit,
    program_to_text,
)
from groundsim.reasoner import kb_to_program

GOLDEN = Path(__file__).parent / "golden"


def _report(num: int, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared constructors


def _fact(name: str, s: float) -> WeightedRule:
    return WeightedRule(logit(s), Atom(cls_pred(name), (Const("o1"),)))


def _generic(ante: str, cons: str, neg: bool = False) -> Prop:
    o = Var("O")
    return Prop(
        ante=(Atom(cls_pred(ante), (o,)),),
        cons=(Atom(cls_pred(cons), (o,)),),
        generic=True,
        cons_negated=neg,
    )


def _kb(*props: Prop) -> KnowledgeBase:
    """A KnowledgeBase holding `props` in order, each stated in episode 1."""
    kb = KnowledgeBase()
    for prop in props:
        kb.add(prop, EXPLICIT, 1)
    return kb


def _conj_part_prop(cls: str, attrs: list[str], part: str, neg: bool = False) -> Prop:
    """Generic with a conjoined attribute consequent over one skolemized part."""
    o = Var("O")
    fo = SkolemApp(SkolemFn(cls, part), o)
    atoms = (
        (Atom(HAVE, (o, fo)),)
        + tuple(Atom(attr_pred(a), (fo,)) for a in attrs)
        + (Atom(cls_pred(part), (fo,)),)
    )
    return Prop(
        ante=(Atom(cls_pred(cls), (o,)),),
        cons=atoms,
        generic=True,
        cons_negated=neg,
    )


def _worked_example_program(s_stem: float, kb_prop: Prop) -> WeightedProgram:
    prog = WeightedProgram(
        [
            _fact("brandyGlass", 0.61),
            _fact("burgundyGlass", 0.62),
            _fact("haveShortStem", s_stem),
        ]
    )
    return prog + ground(kb_to_program(_kb(kb_prop)), ["o1"], {"o1": []})


# ---------------------------------------------------------------------------
# criterion 1: worked-example marginals


def test_criterion_1_worked_examples():
    cases = [
        (0.90, _generic("brandyGlass", "haveShortStem"), 0.91, 0.62),
        (0.10, _generic("brandyGlass", "haveShortStem"), 0.20, 0.62),
        (0.90, _generic("burgundyGlass", "haveShortStem", neg=True), 0.61, 0.19),
    ]
    b = Atom(cls_pred("brandyGlass"), (Const("o1"),))
    g = Atom(cls_pred("burgundyGlass"), (Const("o1"),))
    ok = True
    details = []
    for s_stem, prop, want_b, want_g in cases:
        prog = _worked_example_program(s_stem, prop)
        start = time.perf_counter()
        (table,) = solve_exact(prog)
        elapsed = time.perf_counter() - start
        ref = solve_exact_reference(prog)
        case_ok = (
            abs(table[b] - want_b) <= 0.005
            and abs(table[g] - want_g) <= 0.005
            and abs(table[b] - ref[b]) <= 1e-12
            and abs(table[g] - ref[g]) <= 1e-12
            and elapsed < 1.0
        )
        ok = ok and case_ok
        details.append(f"({table[b]:.4f},{table[g]:.4f} in {elapsed * 1e3:.1f}ms)")
    _report(1, ok, "worked-example marginals " + " ".join(details))


# ---------------------------------------------------------------------------
# criterion 2: golden translation dumps


def test_criterion_2_translation_golden():
    dump1 = program_to_text(kb_to_program(_kb(_generic("brandyGlass", "haveShortStem"))))
    dump2 = program_to_text(
        kb_to_program(_kb(_generic("burgundyGlass", "haveShortStem", neg=True)))
    )
    golden1 = (GOLDEN / "kb_deductive_abductive.lp").read_bytes()
    golden2 = (GOLDEN / "kb_negated_consequent.lp").read_bytes()
    ok = (
        dump1.encode() == golden1
        and dump2.encode() == golden2
        and len(golden1.splitlines()) == 2  # deductive + abductive constraint
        and len(golden2.splitlines()) == 1  # deductive only, no abduction
    )
    _report(2, ok, "kb translation matches golden dumps byte-for-byte")


# ---------------------------------------------------------------------------
# criterion 3: strategy-dependent KB updates


def _fresh_learner(strategy: str) -> LearnerState:
    return LearnerState(
        xb=ExemplarBase(),
        kb=KnowledgeBase(),
        episodic=EpisodicMemory(),
        lexicon=Lexicon(),
        strategy=strategy,
    )


def test_criterion_3_kb_update_sets():
    # situation: the learner confused a burgundy glass for a brandy glass,
    # already knows brandy glasses have wide bowls, and now hears
    # "Brandy glasses have short stems."
    prior = skolemize_part_description(
        cls_pred("brandyGlass"), attr_pred("wide"), cls_pred("bowl")
    )
    statement = skolemize_part_description(
        cls_pred("brandyGlass"), attr_pred("short"), cls_pred("stem")
    )
    neg_form = replace(
        skolemize_part_description(
            cls_pred("burgundyGlass"), attr_pred("short"), cls_pred("stem")
        ),
        cons_negated=True,
    )
    scalar = skolemize_part_description(
        cls_pred("burgundyGlass"), attr_pred("wide"), cls_pred("bowl")
    )
    expected = {
        "semOnly": {prop_key(statement)},
        "semNeg": {prop_key(statement), prop_key(neg_form)},
        "semNegScal": {prop_key(statement), prop_key(neg_form), prop_key(scalar)},
    }
    ok = True
    counts = []
    for strategy, want in expected.items():
        learner = _fresh_learner(strategy)
        learner.kb.add(prior, EXPLICIT, 1)
        before = {prop_key(e.prop) for e in learner.kb}
        learner_integrate_generics(
            learner,
            [statement],
            (cls_pred("burgundyGlass"), cls_pred("brandyGlass")),
            2,
        )
        new = {prop_key(e.prop) for e in learner.kb} - before
        ok = ok and new == want
        counts.append(f"{strategy}:{len(new)}")
    _report(3, ok, "KB entry sets added per strategy exactly (" + ", ".join(counts) + ")")


# ---------------------------------------------------------------------------
# criterion 4: concept difference


def test_criterion_4_concept_diff():
    domain = DomainSpec.builtin_glasses()
    diff = concept_diff(domain, "brandyGlass", "burgundyGlass")
    ok = diff == (frozenset({("short", "stem")}), frozenset())
    _report(4, ok, f"conceptDiff(brandy, burgundy) = {diff}")


# ---------------------------------------------------------------------------
# criteria 5-6: suite-level orderings


def _final_map_means(suite):
    means = {}
    for strategy in suite.config.strategies:
        finals = [r.exams[-1].map for r in suite.results[strategy]]
        means[strategy], _ = mean_ci95(finals)
    return means


def test_criterion_5_strategy_ranking(suite20):
    means = _final_map_means(suite20)
    gap_neg = means["maxHelp_semNeg"] - means["maxHelp_semOnly"]
    gap_sem = means["maxHelp_semOnly"] - means["medHelp"]
    gap_scal = means["maxHelp_semNegScal"] - means["maxHelp_semNeg"]
    ok = (
        len(suite20.config.seeds) >= 20
        and gap_neg >= 0.03
        and gap_sem >= 0.08
        and gap_scal >= -0.01
        and suite20.elapsed < 600.0
    )
    detail = (
        f"final mAP means {', '.join(f'{k}={v:.3f}' for k, v in means.items())}; "
        f"semNeg-semOnly={gap_neg:+.3f} (>=0.03), semOnly-medHelp={gap_sem:+.3f} (>=0.08), "
        f"semNegScal-semNeg={gap_scal:+.3f} (>=-0.01); suite {suite20.elapsed:.0f}s (<600s)"
    )
    _report(5, ok, detail)


def _mean_confusion(suite, strategy, true_cls, pred_cls):
    rates = [r.confusion[true_cls][pred_cls] for r in suite.results[strategy]]
    return float(np.mean(rates))


def test_criterion_6_confusion_asymmetry(suite20):
    b2g_only = _mean_confusion(suite20, "maxHelp_semOnly", "brandyGlass", "burgundyGlass")
    g2b_only = _mean_confusion(suite20, "maxHelp_semOnly", "burgundyGlass", "brandyGlass")
    b2g_neg = _mean_confusion(suite20, "maxHelp_semNeg", "brandyGlass", "burgundyGlass")
    g2b_neg = _mean_confusion(suite20, "maxHelp_semNeg", "burgundyGlass", "brandyGlass")
    gap_only = b2g_only - g2b_only
    gap_neg = abs(b2g_neg - g2b_neg)
    ok = gap_only >= 0.15 and gap_neg <= 0.10
    detail = (
        f"semOnly brandy->burgundy {b2g_only:.3f} vs burgundy->brandy {g2b_only:.3f} "
        f"(gap {gap_only:+.3f} >= 0.15); semNeg |gap| {gap_neg:.3f} <= 0.10"
    )
    _report(6, ok, detail)


# ---------------------------------------------------------------------------
# criterion 7: scalar-implicature cancellation


def test_criterion_7_cancellation(suite20):
    # scripted scenario: a scalar-only bordeaux rule enters the KB after a
    # burgundy/bordeaux confusion, then a confirmed bordeaux observation
    # refutes it and cancellation removes it
    learner = _fresh_learner("semNegScal")
    kappa = _conj_part_prop("burgundyGlass", ["wide", "tapered"], "bowl")
    learner.kb.add(kappa, EXPLICIT, 1)
    statements = [
        _conj_part_prop("burgundyGlass", ["wide", "round"], "bowl"),
        _conj_part_prop("bordeauxGlass", ["elliptical"], "bowl"),
    ]
    learner_integrate_generics(
        learner,
        statements,
        (cls_pred("burgundyGlass"), cls_pred("bordeauxGlass")),
        2,
    )
    scalar = _conj_part_prop("bordeauxGlass", ["wide", "tapered"], "bowl")
    entered = learner.kb.contains(scalar)
    scalar_entry = next(e for e in learner.kb if prop_key(e.prop) == prop_key(scalar))
    scalar_only = scalar_entry.provenance == {SCALAR_IMPLICATURE}

    learner.episodic.append(
        EpisodicRecord(
            episode=3,
            true_class="bordeauxGlass",
            property_scores={
                ("wide", "bowl"): 0.05,
                ("tapered", "bowl"): 0.95,
                ("round", "bowl"): 0.05,
                ("elliptical", "bowl"): 0.95,
            },
        )
    )
    removed = cancel_scalar_implicatures(learner)
    cancelled = (
        [prop_key(p) for p in removed] == [prop_key(scalar)]
        and not learner.kb.contains(scalar)
        and learner.kb.contains(kappa)
    )

    # suite-wide: nothing with explicit provenance was ever removed
    no_explicit_removed = all(
        prov == frozenset({SCALAR_IMPLICATURE}) for prov in suite20.removed_provenances
    )
    ok = entered and scalar_only and cancelled and no_explicit_removed
    detail = (
        f"scalar bordeaux rule entered={entered}, cancelled={cancelled}; "
        f"{len(suite20.removed_provenances)} suite removals, all scalar-only="
        f"{no_explicit_removed}"
    )
    _report(7, ok, detail)


# ---------------------------------------------------------------------------
# criterion 8: solver properties


def _random_acyclic_program(rng) -> WeightedProgram:
    """Soft facts on every atom plus pairwise constraints that form a tree:
    constraint i attaches atom i to an earlier atom, so the factor graph is a
    forest (unary fact factors never close a cycle)."""
    n = int(rng.integers(2, 11))
    atoms = [Atom(cls_pred(f"a{i}"), (Const("o"),)) for i in range(n)]
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


def test_criterion_8_solver_properties():
    rng = np.random.default_rng(8)

    # fact round-trip
    max_fact_err = 0.0
    atom = Atom(cls_pred("gamma"), (Const("o"),))
    for _ in range(1000):
        s = float(rng.uniform(1e-3, 1.0 - 1e-3))
        (table,) = solve_exact(WeightedProgram([WeightedRule(logit(s), atom)]))
        max_fact_err = max(max_fact_err, abs(table[atom] - s))
    facts_ok = max_fact_err <= 1e-9

    # BP vs exact on random acyclic programs
    max_bp_err = 0.0
    all_acyclic = True
    for _ in range(200):
        prog = _random_acyclic_program(rng)
        variables, factors = build_factor_graph(prog)
        all_acyclic = all_acyclic and is_acyclic(variables, factors)
        (exact,) = solve_exact(prog)
        bp = solve_bp(prog)
        for a in exact.probs:
            max_bp_err = max(max_bp_err, abs(exact[a] - bp[a]))
    bp_ok = all_acyclic and max_bp_err <= 1e-6

    # world probabilities normalize
    max_sum_err = 0.0
    for _ in range(50):
        prog = _random_acyclic_program(rng)
        total = sum(p for _, p in enumerate_worlds(prog))
        max_sum_err = max(max_sum_err, abs(total - 1.0))
    worlds_ok = max_sum_err <= 1e-9

    ok = facts_ok and bp_ok and worlds_ok
    detail = (
        f"fact round-trip err {max_fact_err:.2e} (<=1e-9); "
        f"BP vs exact err {max_bp_err:.2e} (<=1e-6) on 200 acyclic programs; "
        f"world-sum err {max_sum_err:.2e} (<=1e-9)"
    )
    _report(8, ok, detail)


# ---------------------------------------------------------------------------
# criterion 9: dialogue round-trip and transcript determinism


def _logical_form_corpus(domain: DomainSpec):
    eid = "o1"
    forms = [CORRECT, NOT_SURE]
    forms.append(
        Ques(
            "wh",
            prop=Prop(
                ante=(),
                cons=(Atom(cls_pred("P"), (Const(eid),)),),
            ),
            var="P",
        )
    )
    classes = sorted(domain.classes)
    for cls in classes:
        for neg in (False, True):
            forms.append(
                Prop(
                    ante=(),
                    cons=(Atom(cls_pred(cls), (Const(eid),)),),
                    cons_negated=neg,
                )
            )
        forms.append(
            Ques(
                "polar",
                prop=Prop(
                    ante=(),
                    cons=(Atom(cls_pred(cls), (Const(eid),)),),
                ),
            )
        )
    for c1 in classes:
        for c2 in classes:
            if c1 != c2:
                forms.append(Ques("conceptDiff", pair=(cls_pred(c1), cls_pred(c2))))
    for cls in classes:
        for attr in domain.attributes:
            for part in domain.parts:
                forms.append(
                    skolemize_part_description(
                        cls_pred(cls), attr_pred(attr), cls_pred(part)
                    )
                )
    for attr in domain.attributes:
        for part in domain.parts:
            o = Const(eid)
            fo = SkolemApp(SkolemFn(eid, part), o)
            forms.append(
                Prop(
                    ante=(),
                    cons=(
                        Atom(HAVE, (o, fo)),
                        Atom(attr_pred(attr), (fo,)),
                        Atom(cls_pred(part), (fo,)),
                    ),
                )
            )
    return forms


def test_criterion_9_round_trip_and_determinism(suite20):
    domain = DomainSpec.builtin_glasses()
    lexicon = domain_lexicon(domain)
    corpus = _logical_form_corpus(domain)
    hits = sum(
        1 for form in corpus if parse(realize(form, lexicon), lexicon, "o1") == form
    )
    round_trip_ok = hits == len(corpus)

    rerun_ok = True
    for strategy in suite20.config.strategies:
        for result in suite20.results[strategy][:5]:
            again = run_sequence(suite20.config, strategy, result.seed)
            if "\n".join(again.transcript) != "\n".join(result.transcript):
                rerun_ok = False
    ok = round_trip_ok and rerun_ok
    detail = (
        f"parse(realize(x))=x for {hits}/{len(corpus)} forms; "
        f"transcripts byte-identical across reruns={rerun_ok} "
        f"(5 strategies x 5 seeds)"
    )
    _report(9, ok, detail)


# ---------------------------------------------------------------------------
# criterion 10: prior-knowledge calibration


def test_criterion_10_prior_calibration():
    domain = DomainSpec.builtin_glasses()
    model = FeatureModel(domain, seed=0)
    ok = True
    details = []
    for seed in (0, 1, 2):
        xb = ExemplarBase()
        init_priors(xb, model, np.random.default_rng([seed, 3]))
        part_acc, attr_acc = heldout_accuracy(xb, model, np.random.default_rng([seed, 0xACC]))
        ok = ok and part_acc >= 0.95 and 0.80 <= attr_acc <= 0.92
        details.append(f"seed {seed}: part {part_acc:.3f}, attr {attr_acc:.3f}")
    _report(10, ok, "held-out accuracy after priors: " + "; ".join(details))
