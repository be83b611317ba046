"""Multiset helpers."""

import itertools

from metanov.multisets import distinct_permutations


def test_distinct_permutations_in_sorted_order():
    for items in ((), (1,), (2, 1), (1, 1, 1, 1, 1, 1, 2), (3, 1, 2, 1),
                  (2, 2, 1, 1, 3), (1, 2, 3, 4, 5), (1, 1, 2, 2, 2, 3, 3)):
        assert list(distinct_permutations(items)) == sorted(set(itertools.permutations(items)))
    # one step per distinct ordering, not one per permutation
    assert len(list(distinct_permutations([1] * 12 + [2]))) == 13
