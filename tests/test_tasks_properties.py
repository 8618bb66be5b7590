"""Property tests for the ListOps draw: every sample fits its capacity and
keeps its label, and the capacity changes a draw only where an unbounded
draw would have overrun it."""

import numpy as np
import pytest

from astroseq.tasks import ListOpsTask
from test_tasks import eval_listops_tokens

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(derandomize=True, deadline=None, max_examples=60)
@hypothesis.given(
    capacity=st.integers(5, 2560),
    max_depth=st.integers(1, 12),
    max_args=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_listops_samples_fit_and_match_the_evaluator(capacity, max_depth, max_args, seed):
    task = ListOpsTask(capacity, 1, max_depth=max_depth, max_args=max_args)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        tokens, label = task.sample(rng)
        assert 5 <= len(tokens) <= capacity
        assert eval_listops_tokens(tokens) == label


@hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
@hypothesis.given(
    capacity=st.integers(5, 400),
    max_depth=st.integers(1, 3),
    max_args=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_listops_capacity_changes_only_draws_that_overrun(capacity, max_depth, max_args, seed):
    """At depth 3 and 6 arguments no draw exceeds 345 tokens, so a room of
    10^4 draws the unbounded expression; where that fits the capacity, the
    draw within the capacity is the same."""
    task = ListOpsTask(capacity, 1, max_depth=max_depth, max_args=max_args)
    capped, unbounded = [], []
    capped_value = task._gen_expr(np.random.default_rng(seed), 0, capped, capacity)
    unbounded_value = task._gen_expr(np.random.default_rng(seed), 0, unbounded, 10**4)
    assert len(capped) <= capacity and len(unbounded) <= 345
    if len(unbounded) <= capacity:
        assert capped == unbounded and capped_value == unbounded_value
