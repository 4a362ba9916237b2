"""Every entry of ``dpl.properties.PROPERTIES``, on hypothesis-drawn seeds."""

import pytest
from hypothesis import given, settings, strategies as st

from dpl.properties import PROPERTIES


@pytest.mark.parametrize("name", PROPERTIES)
@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**30 - 1))
def test_property_holds(name, seed):
    assert PROPERTIES[name](seed) == []
