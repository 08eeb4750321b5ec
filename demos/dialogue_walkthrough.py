"""Dialogue walkthrough.

Drives teaching episodes directly with the library (the same pieces the
harness uses): a fineEasy domain, the most helpful teacher, and a learner
that also adopts negative implicatures (semNeg). It prints the transcript
until shortly after the first contrastive exchange, then shows what ended
up in the learner's knowledge base and where each entry came from.

Run: python3 demos/dialogue_walkthrough.py
"""

import numpy as np

from groundsim.agents import TeacherState, domain_lexicon
from groundsim.dialogue import SEP
from groundsim.harness import ExperimentConfig, class_queue, new_learner, run_episode
from groundsim.logic import prop_to_text
from groundsim.perception import DomainSpec, FeatureModel


def main():
    config = ExperimentConfig(difficulty="fineEasy")
    domain = DomainSpec.builtin_glasses()
    model = FeatureModel(domain, seed=config.feature_seed)
    seed = 0

    teacher = TeacherState(
        domain=domain, strategy="maxHelp", lexicon=domain_lexicon(domain)
    )
    learner = new_learner(domain, model, "semNeg", seed)

    rng = np.random.default_rng([seed, 1])
    targets = class_queue(config.classes, rng)
    print("=== transcript ===")
    seen_diff = False
    episode = 0
    # stop at the end of the round of classes that held the first question
    while not (seen_diff and episode % len(config.classes) == 0) and episode < 30:
        target = next(targets)
        episode += 1
        _, lines = run_episode(teacher, learner, model, config, target, episode, rng)
        print(f"# episode {episode} target={target}")
        for line in lines:
            speaker, surface, _ = line.split(SEP)
            print(f"  {speaker:8s} {surface}")
            if "different?" in surface:
                seen_diff = True

    print("\n=== knowledge base after these episodes ===")
    for entry in learner.kb:
        provs = ", ".join(sorted(entry.provenance))
        print(f"  {prop_to_text(entry.prop)}")
        print(f"      provenance: {provs}; episodes: {entry.origin_episodes}")


if __name__ == "__main__":
    main()
