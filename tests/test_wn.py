"""Normal forms with right symmetry: seven basis-element kinds."""

import itertools

import pytest

from metanov import (
    WnBasisElement,
    WnElement,
    evaluate,
    parse_expr,
    wn_basis,
    wn_canonicalize,
    wn_mul,
)
from metanov.fields import GF, QQ
from metanov.magma import tch, x
from metanov.wn import ASSOC, GEN, LPROD, MIDASSOC, PAIR, RWORD, TEICH

gen = WnElement.gen


def E(kind, *args, field=QQ):
    return WnElement.basis(wn_canonicalize(kind, args), field)


def test_canonicalize_sorts_symmetric_parts():
    assert wn_canonicalize(ASSOC, (1, 3, 2)).args == (1, 2, 3)
    assert wn_canonicalize(MIDASSOC, (1, 2, 5, 4)).args == (1, 2, 4, 5)
    assert wn_canonicalize(TEICH, (2, 3, 1, 3)).args == (2, 1, 3, 3)
    assert wn_canonicalize(RWORD, (1, 5, 4, 3, 2)).args == (1, 2, 3, 4, 5)
    with pytest.raises(ValueError):
        wn_canonicalize(RWORD, (1, 2, 3, 4))  # needs >= 4 tail indices
    with pytest.raises(ValueError, match="assoc elements take 3 indices, got 4"):
        wn_canonicalize(ASSOC, (1, 2, 3, 4))


def test_pair_and_lprod_are_ordered():
    assert wn_canonicalize(PAIR, (2, 1)).args == (2, 1)
    assert wn_canonicalize(LPROD, (3, 2, 1)).args == (3, 2, 1)


def test_degrees():
    assert WnBasisElement(GEN, (1,)).degree == 1
    assert WnBasisElement(PAIR, (1, 2)).degree == 2
    assert wn_canonicalize(LPROD, (1, 2, 3)).degree == 3
    assert wn_canonicalize(MIDASSOC, (1, 2, 3, 4)).degree == 4
    assert wn_canonicalize(RWORD, (1, 2, 3, 4, 5, 6)).degree == 6


def test_generator_actions_degree_up_to_three():
    assert gen(1) * gen(2) == E(PAIR, 1, 2)
    assert gen(1) * E(PAIR, 2, 3) == E(LPROD, 1, 2, 3)
    # q * x(yz) = -(q, y*x, z)
    assert gen(4) * E(LPROD, 1, 2, 3) == E(MIDASSOC, 4, 2, 1, 3).scaled(-1)
    # q * (x,t1,t2) = (x, q*t1, t2)
    assert gen(4) * E(ASSOC, 1, 2, 3) == E(MIDASSOC, 1, 4, 2, 3)


def test_right_actions():
    # xz * y = (x,z,y) + x(zy)
    assert E(PAIR, 1, 2) * gen(3) == E(ASSOC, 1, 2, 3) + E(LPROD, 1, 2, 3)
    # (x,t1,t2) * y = Tch + two mid-associators
    got = E(ASSOC, 1, 2, 3) * gen(4)
    want = E(TEICH, 1, 2, 3, 4) + E(MIDASSOC, 1, 2, 3, 4) + E(MIDASSOC, 1, 3, 2, 4)
    assert got == want
    # Teichmueller and R-words absorb further right factors
    assert E(TEICH, 1, 2, 3, 4) * gen(5) == E(RWORD, 1, 2, 3, 4, 5)
    assert E(RWORD, 1, 2, 3, 4, 5) * gen(6) == E(RWORD, 1, 2, 3, 4, 5, 6)


def test_lprod_right_action_three_terms():
    got = E(LPROD, 1, 2, 3) * gen(4)
    want = (E(MIDASSOC, 1, 2, 3, 4) - E(MIDASSOC, 1, 3, 2, 4)
            + E(MIDASSOC, 2, 1, 3, 4))
    assert got == want


def test_annihilator_is_two_sided():
    mid = E(MIDASSOC, 1, 2, 3, 4)
    assert (gen(5) * mid).is_zero()
    assert (mid * gen(5)).is_zero()


def test_metabelian_null():
    p = E(PAIR, 1, 2)
    q = E(LPROD, 3, 4, 5)
    assert (p * p).is_zero()
    assert (p * q).is_zero()
    assert (q * p).is_zero()


def test_teich_has_no_left_action():
    assert (gen(5) * E(TEICH, 1, 2, 3, 4)).is_zero()
    assert (gen(6) * E(RWORD, 1, 2, 3, 4, 5)).is_zero()


def test_basis_counts_multilinear():
    assert len(wn_basis({1: 1, 2: 1})) == 2
    assert len(wn_basis({1: 1, 2: 1, 3: 1})) == 9
    assert len(wn_basis({1: 1, 2: 1, 3: 1, 4: 1})) == 16
    assert len(wn_basis({i: 1 for i in range(1, 6)})) == 5
    assert len(wn_basis({i: 1 for i in range(1, 7)})) == 6


def test_basis_counts_with_repeats():
    assert len(wn_basis({1: 2})) == 1
    assert len(wn_basis({1: 2, 2: 1})) == 5
    assert len(wn_basis({1: 4})) == 2  # (x,xx,x) and Tch(x,x,x,x)


def test_basis_sorted_unique():
    basis = wn_basis({1: 1, 2: 1, 3: 1, 4: 1})
    keys = [WnElement._key_order(e) for e in basis]
    assert keys == sorted(keys)
    assert len(set(basis)) == len(basis)


def test_right_symmetry_of_associators():
    # (x,y,z) = (x,z,y) holds at the normal-form level
    f = parse_expr("A(x1,x2,x3) - A(x1,x3,x2)")
    assert evaluate(f, WnElement).is_zero()


def test_left_normed_degree_four():
    # ((x1 x2) x3) x4 = Tch + 2(x1, x2*x3, x4) + (x2, x1*x3, x4)
    e = evaluate(parse_expr("((x1*x2)*x3)*x4"), WnElement)
    want = (E(TEICH, 1, 2, 3, 4) + E(MIDASSOC, 1, 2, 3, 4).scaled(2)
            + E(MIDASSOC, 2, 1, 3, 4))
    assert e == want


def test_tch_combination_collapses():
    for a, b, c, d in itertools.product(range(1, 4), repeat=4):
        got = evaluate(tch(x(a), x(b), x(c), x(d)), WnElement)
        assert got == E(TEICH, a, b, c, d)


def test_interchangeable_rword_indices():
    # all indices after the first are symmetric, including the second
    e1 = evaluate(parse_expr("(((x1*x2)*x3)*x4)*x5"), WnElement)
    e2 = evaluate(parse_expr("(((x1*x5)*x3)*x4)*x2"), WnElement)
    assert [k for k in e1.terms if k.kind == RWORD] == \
           [k for k in e2.terms if k.kind == RWORD]


def test_modular_eval():
    F = GF(1009)
    e = evaluate(parse_expr("((x1*x2)*x3)*x4", F), WnElement)
    assert e.field == F
    assert set(e.terms.values()) <= set(range(1, 1009))
