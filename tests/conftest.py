import random
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st

settings.register_profile("exact", deadline=None)
settings.load_profile("exact")

from qdeform.poly import Poly

# q values for which every QContext invariant holds at any index; the two
# outside (-1, 1) are exercised separately with their warning.
Q_GRID = (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(9, 10))
DELTA_GRID = (Fraction(1), Fraction(1, 2))

small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)

coeff_lists = st.lists(small_rationals, min_size=0, max_size=8)

monomial_polys = coeff_lists.map(Poly)

q_values = st.sampled_from(Q_GRID)


@pytest.fixture
def rng():
    return random.Random(20010331)


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty map memo for one test, so its builds neither see nor evict
    the maps other tests share, and a perturbed ingredient never reaches a
    shared map."""
    from collections import OrderedDict

    from qdeform import maps

    monkeypatch.setattr(maps, "_memo", OrderedDict())
    return maps
