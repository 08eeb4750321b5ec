"""Worked inference example.

A single object is observed with a somewhat confident brandy-glass score and
a clearly visible short stem. We ask the polar question "Is this a brandy
glass?" three times: with an empty knowledge base, after learning that
brandy glasses have short stems, and after learning instead that burgundy
glasses do NOT have short stems. The printed programs show exactly what the
exact solver sees.

Run: python3 demos/worked_inference.py
"""

from dataclasses import replace

from groundsim.logic import attr_pred, cls_pred, skolemize_part_description
from groundsim.memory import EXPLICIT, KnowledgeBase
from groundsim.program import ground, program_to_text
from groundsim.reasoner import (
    ReliabilityParams,
    answer_polar,
    build_program,
    kb_to_program,
    polar_ques,
)
from groundsim.perception import SceneGraph, SceneNode


def make_scene(brandy_score: float, burgundy_score: float) -> SceneGraph:
    return SceneGraph(
        nodes={
            "o1": SceneNode(
                class_scores={
                    "brandyGlass": brandy_score,
                    "burgundyGlass": burgundy_score,
                },
            ),
            "o1_stem": SceneNode(class_scores={"stem": 0.9}, attr_scores={"short": 0.9}),
        },
        edges={("o1", "o1_stem"): {"have": 0.95}},
        object_parts={"o1": ["o1_stem"]},
    )


def show(title: str, kb: KnowledgeBase, sg: SceneGraph, cls: str = "brandyGlass"):
    u = ReliabilityParams()
    q = polar_ques(cls, "o1")
    print(f"--- {title} ---")
    kb_rules = ground(kb_to_program(kb, u), ["o1"], sg.object_parts)
    if len(kb_rules) > 0:
        print("knowledge rules (grounded):")
        print(program_to_text(kb_rules), end="")
    p = answer_polar(sg, kb, u, q)
    print(f"P({cls}(o1)) = {p:.4f}\n")
    return p


def main():
    sg = make_scene(brandy_score=0.6, burgundy_score=0.4)

    baseline = show("no general knowledge", KnowledgeBase(), sg)
    baseline_bg = show(
        "no general knowledge (burgundy)", KnowledgeBase(), sg, cls="burgundyGlass"
    )

    kb_pos = KnowledgeBase()
    kb_pos.add(
        skolemize_part_description(
            cls_pred("brandyGlass"), attr_pred("short"), cls_pred("stem")
        ),
        EXPLICIT,
        1,
    )
    with_rule = show("brandy glasses have short stems", kb_pos, sg)

    kb_neg = KnowledgeBase()
    prop = skolemize_part_description(
        cls_pred("burgundyGlass"), attr_pred("short"), cls_pred("stem")
    )
    kb_neg.add(replace(prop, cons_negated=True), EXPLICIT, 1)
    with_neg = show(
        "burgundy glasses do not have short stems", kb_neg, sg, cls="burgundyGlass"
    )

    print("the visible short stem raises the class it supports and lowers")
    print("the class it rules out:")
    print(f"  P(brandy):   {baseline:.4f} -> {with_rule:.4f} (positive rule)")
    print(f"  P(burgundy): {baseline_bg:.4f} -> {with_neg:.4f} (negative rule)")

    print("\nfull program for the positive-rule case:")
    print(program_to_text(build_program(sg, kb_pos)), end="")


if __name__ == "__main__":
    main()
