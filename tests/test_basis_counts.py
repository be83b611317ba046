"""Both bases, pinned: their sizes at every multidegree shape of degree
<= 7, and every element canonical, of the right multidegree and listed
once."""

from collections import Counter

import pytest

from metanov import canonicalize_L, wlc_basis, wn_basis, wn_canonicalize

# partition -> (len(wn_basis), len(wlc_basis))
COUNTS = {
    (1,): (1, 1),
    (2,): (1, 1), (1, 1): (2, 2),
    (3,): (2, 2), (2, 1): (5, 6), (1, 1, 1): (9, 12),
    (4,): (2, 3), (3, 1): (5, 12), (2, 2): (6, 18), (2, 1, 1): (10, 36),
    (1, 1, 1, 1): (16, 72),
    (5,): (1, 4), (4, 1): (2, 17), (3, 2): (2, 32), (3, 1, 1): (3, 63),
    (2, 2, 1): (3, 93), (2, 1, 1, 1): (4, 185), (1, 1, 1, 1, 1): (5, 370),
    (6,): (1, 5), (5, 1): (2, 23), (4, 2): (2, 51), (4, 1, 1): (3, 100),
    (3, 3): (2, 66), (3, 2, 1): (3, 191), (3, 1, 1, 1): (4, 378),
    (2, 2, 2): (3, 282), (2, 2, 1, 1): (4, 560), (2, 1, 1, 1, 1): (5, 1116),
    (1, 1, 1, 1, 1, 1): (6, 2232),
    (7,): (1, 6), (6, 1): (2, 30), (5, 2): (2, 76), (5, 1, 1): (3, 149),
    (4, 3): (2, 119), (4, 2, 1): (3, 345), (4, 1, 1, 1): (4, 682),
    (3, 3, 1): (3, 451), (3, 2, 2): (3, 667), (3, 2, 1, 1): (4, 1324),
    (3, 1, 1, 1, 1): (5, 2633), (2, 2, 2, 1): (4, 1966),
    (2, 2, 1, 1, 1): (5, 3917), (2, 1, 1, 1, 1, 1): (6, 7819),
    (1, 1, 1, 1, 1, 1, 1): (7, 15638),
}


def _md(part):
    return {i + 1: m for i, m in enumerate(part)}


@pytest.mark.parametrize("part", COUNTS, ids=str)
def test_wn_basis_pinned(part):
    md = _md(part)
    basis = wn_basis(md)
    assert len(basis) == COUNTS[part][0]
    assert len(set(basis)) == len(basis)
    for e in basis:
        assert wn_canonicalize(e.kind, e.args) == e
        assert Counter(e.args) == md


@pytest.mark.parametrize("part", COUNTS, ids=str)
def test_wlc_basis_pinned(part):
    md = _md(part)
    basis = wlc_basis(md)
    assert len(basis) == COUNTS[part][1]
    assert len(set(basis)) == len(basis)
    for m in basis:
        assert canonicalize_L(m.lpart) == m.lpart
        assert Counter((m.base,) + m.lpart + m.rpart) == md
