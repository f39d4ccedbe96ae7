"""The DAG invariant is checked once, by the graph's constructor.

``parse`` hands its steps to that one check and reports a failure as
``cycle-in-steps``, with the detail the constructor gives: the first
self-loop in edge order, else the first strongly connected component.
The constructor's acceptance set is checked against networkx in
``test_graph_oracles.py``.
"""
from __future__ import annotations

import pytest

from graphreason.codec import CYCLE_IN_STEPS, STRICT, TemplateParseError, parse


@pytest.mark.parametrize(
    "steps, detail",
    [
        (["a → b", "b → a"], "cycle through a -> b"),
        (["x → y", "A. → a"], "self-loop on 'a'"),
    ],
)
def test_failed_acyclicity_test_keeps_the_cycle_diagnosis(steps, detail):
    body = "\n".join(f"<step> {step} </step>" for step in steps)
    with pytest.raises(TemplateParseError) as caught:
        parse(f"<reasoning>\n{body}\n</reasoning>\n<answer> 4 </answer>", STRICT)
    assert (caught.value.kind, caught.value.location, caught.value.detail) == (
        CYCLE_IN_STEPS,
        len("<reasoning>"),
        detail,
    )
