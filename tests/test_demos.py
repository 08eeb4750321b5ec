"""The demos run as scripts, print what their docstrings promise, and print
exactly their golden output in `tests/golden/`."""

import re
import runpy
from pathlib import Path

from groundsim.memory import NEG_IMPLICATURE

DEMOS = Path(__file__).parent.parent / "demos"
GOLDEN = Path(__file__).parent / "golden"


def run_demo(name: str, capsys) -> str:
    """The demo's stdout, checked byte for byte against its golden copy."""
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / name).with_suffix(".txt").read_bytes()
    return out


def test_dialogue_walkthrough_reaches_a_contrastive_exchange(capsys):
    out = run_demo("dialogue_walkthrough.py", capsys)
    assert "How are " in out and " different?" in out
    assert "=== knowledge base after these episodes ===" in out
    # the semNeg learner adopted the implicatures of the teacher's answer
    assert f"provenance: {NEG_IMPLICATURE}" in out


def test_worked_inference_rule_moves_the_class_it_mentions(capsys):
    out = run_demo("worked_inference.py", capsys)

    def before_after(name: str) -> tuple[float, float]:
        m = re.search(rf"P\({name}\):\s+([0-9.]+) -> ([0-9.]+)", out)
        return float(m.group(1)), float(m.group(2))

    brandy, burgundy = before_after("brandy"), before_after("burgundy")
    assert brandy[1] > brandy[0]  # the positive rule raises P(brandy)
    assert burgundy[1] < burgundy[0]  # the negative rule lowers P(burgundy)
    assert "full program for the positive-rule case:" in out
