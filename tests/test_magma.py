"""Free magma words, polynomials, derived operations, and enumeration."""

import math

import pytest
from hypothesis import given, strategies as st

from metanov import (
    Atom,
    MagmaPoly,
    Node,
    associator,
    circle,
    commutator,
    enumerate_words,
    substitute,
    tch,
    v,
    x,
)
from metanov.fields import QQ
from metanov.magma import leaves, poly_multidegree, word_key


def _catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def test_atoms_and_nodes_are_hashable_values():
    a = Atom("x", 1)
    assert a == Atom("x", 1)
    assert Node(a, a) == Node(Atom("x", 1), Atom("x", 1))
    assert hash(Node(a, a)) == hash(Node(Atom("x", 1), Atom("x", 1)))


def test_bad_atom_rejected():
    with pytest.raises(ValueError):
        Atom("y", 1)
    with pytest.raises(ValueError):
        Atom("x", -1)


def test_degree_and_leaves():
    w = Node(Node(Atom("x", 1), Atom("x", 2)), Atom("x", 3))
    assert len(leaves(w)) == 3
    assert leaves(w) == (Atom("x", 1), Atom("x", 2), Atom("x", 3))
    assert poly_multidegree(MagmaPoly.basis(w), "x") == {1: 1, 2: 1, 3: 1}


def test_poly_linear_structure():
    f = x(1) * x(2) + x(2) * x(1)
    g = f - x(1) * x(2)
    assert g == x(2) * x(1)
    assert (f - f).is_zero()
    assert f.scaled(0).is_zero()
    h = f.scaled(3) - f - f - f
    assert h.is_zero()


def test_product_is_tree_join():
    f = (x(1) + x(2)) * x(3)
    assert f == x(1) * x(3) + x(2) * x(3)
    assert len(f.terms) == 2


def test_enumeration_count_is_catalan_times_multinomial():
    # multilinear: Catalan(n-1) * n!
    for n in range(1, 6):
        words = enumerate_words({i: 1 for i in range(1, n + 1)})
        assert len(words) == _catalan(n - 1) * math.factorial(n)
    # repeated letters divide the multinomial
    words = enumerate_words({1: 2, 2: 1})
    assert len(words) == _catalan(2) * 3  # 3!/2! = 3 arrangements
    # sorted, no duplicates
    keys = [word_key(w) for w in words]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_enumeration_is_built_in_word_key_order():
    for md in ({i: 1 for i in range(1, 6)}, {1: 2, 2: 2, 3: 1}, {4: 3}):
        words = enumerate_words(md)
        keys = [word_key(w) for w in words]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert all(poly_multidegree(MagmaPoly.basis(w), "x") == md for w in words)
        n = sum(md.values())
        assert len(words) == _catalan(n - 1) * math.factorial(n) // math.prod(
            math.factorial(m) for m in md.values())


def test_associator_commutator_circle():
    a, b, c = x(1), x(2), x(3)
    assert associator(a, b, c) == (a * b) * c - a * (b * c)
    assert commutator(a, b) == a * b - b * a
    assert circle(a, b) == a * b + b * a
    assert commutator(a, a).is_zero()


def test_tch_expands_to_six_words():
    f = tch(x(1), x(2), x(3), x(4))
    assert len(f.terms) == 6
    # the coefficient-2 words
    w_pos = Node(Atom("x", 1), Node(Node(Atom("x", 2), Atom("x", 3)), Atom("x", 4)))
    w_neg = Node(Node(Atom("x", 1), Node(Atom("x", 2), Atom("x", 3))), Atom("x", 4))
    assert f.terms[w_pos] == 2
    assert f.terms[w_neg] == -2
    assert all(abs(c) in (1, 2) for c in f.terms.values())


def test_substitute_requires_full_assignment():
    f = v(1) * v(2)
    with pytest.raises(ValueError):
        substitute(f, {1: x(5)})
    g = substitute(f, {1: x(5), 2: x(6) + x(7)})
    assert g == x(5) * x(6) + x(5) * x(7)


def test_substitute_is_multiplicative_on_products():
    f = v(1) * (v(2) * v(1))
    g = substitute(f, {1: x(1) + x(2), 2: x(3)})
    # expanding by hand: (x1+x2)(x3(x1+x2)) has 4 terms
    assert len(g.terms) == 4


def test_poly_multidegree_is_shared_by_every_term():
    assert poly_multidegree(x(1) * x(2) - x(2) * x(1), "x") == {1: 1, 2: 1}
    assert poly_multidegree(v(1) * (v(1) * v(2)), "v") == {1: 2, 2: 1}
    for f, kind, msg in ((MagmaPoly.zero(QQ), "x", "zero polynomial"),
                         (x(1) * x(2) + x(1), "x", "not multihomogeneous"),
                         (x(1) * v(2), "x", "formal-variable leaf v2"),
                         (v(1) * x(2), "v", "generator leaf x2")):
        with pytest.raises(ValueError, match=msg):
            poly_multidegree(f, kind)


def test_is_multilinear():
    # multilinear: every formal variable of every term occurs exactly once
    assert set(poly_multidegree(v(1) * v(2) - v(2) * v(1), "v").values()) == {1}
    assert poly_multidegree(v(1) * v(1), "v") == {1: 2}
    with pytest.raises(ValueError, match="not multihomogeneous"):
        poly_multidegree(v(1) * v(2) + v(1) * v(1), "v")
    with pytest.raises(ValueError, match="generator leaf x1"):
        poly_multidegree(x(1) * x(2), "v")  # no formal variables at all


@given(st.integers(min_value=1, max_value=4))
def test_enumerate_words_multidegrees_match(n):
    md = {i: 1 for i in range(1, n + 1)}
    for w in enumerate_words(md):
        assert poly_multidegree(MagmaPoly.basis(w), "x") == md
