"""The README's library quick start runs, and its comments state true values."""

import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_steps() -> list:
    """The paragraphs of the README's first Python block, in order."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    return [step for step in block.split("\n\n") if step.strip()]


def test_quick_start_values():
    steps = quick_start_steps()
    assert len(steps) == 5
    ns: dict = {}
    exec(steps[0], ns)  # imports

    exec(steps[1], ns)
    assert ns["code"].lengths == (1, 2, 3, 3, math.inf)
    assert ns["d"] == pytest.approx(0.1362, abs=5e-5)

    exec(steps[2], ns)
    assert ns["res"].C == pytest.approx(0.3219, abs=5e-5)
    assert ns["res"].p_star.probs == pytest.approx([0.6, 0.4], abs=5e-5)
    assert ns["code"].lengths == (1, 1)

    exec(steps[3], ns)
    assert ns["fix"].lengths.lengths == (1, 2, 2)
    assert ns["fix"].R == pytest.approx(0.97497, abs=5e-6)

    exec(steps[4], ns)
    assert ns["report"].n_symbols == 100_000
