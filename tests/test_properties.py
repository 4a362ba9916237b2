"""Every entry of ``dpl.properties.PROPERTIES``, on hypothesis-drawn seeds."""

import pytest
from hypothesis import given, settings, strategies as st

from dpl import random_map
from dpl.properties import PROPERTIES, _regular_arc, _rng, _sweep_free_reach


@pytest.mark.parametrize("name", PROPERTIES)
@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**30 - 1))
def test_property_holds(name, seed):
    assert PROPERTIES[name](seed) == []


@pytest.mark.parametrize("seed", [523, 2159])
def test_unfolding_checks_fall_back_to_the_default_arc(seed):
    # these seeds draw an arc whose end can reach no sweep-free level
    f = random_map(seed, 6, 2)
    base = f if f.degree >= 0 else f.reflect()
    assert not _sweep_free_reach(base, _regular_arc(base, _rng(seed)))
    assert PROPERTIES["unfold_termination"](seed) == []
    assert PROPERTIES["pair_counts"](seed) == []
