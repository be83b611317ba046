"""T-ideal oracle: linearization, relation rows, dimensions, membership."""

import itertools
import json
import os
import random
import subprocess
import sys
from math import gcd, lcm
from pathlib import Path

import pytest

from metanov import (
    IdentitySet,
    load_identity_file,
    membership,
    parse_expr,
    parse_identity,
    preset,
    quotient_basis,
    quotient_dimension,
    relation_rows,
)
from metanov.fields import GF, QQ, Rationals
from metanov.magma import (
    Atom,
    MagmaPoly,
    Node,
    associator,
    circle,
    commutator,
    enumerate_words,
    poly_multidegree,
    shape_preorders,
    v,
    x,
)
from metanov.multisets import md_from_list, md_sub, md_total, partitions_of, sub_multisets
from metanov.oracle import (DegreeCapExceeded, Echelon, RelationMatrix, _echelon,
                            linearize)
from metanov.verify import check_dimensions_degree_7, check_dimensions_small_char
from metanov.wlc import wlc_basis
from metanov.wn import wn_basis


def test_presets_exist():
    for name in ("rs", "wn", "lc", "met", "flex", "antiflex",
                 "wlc2", "wnov2", "nov2", "lie-nilp:2", "jordan-nilp:3",
                 "weak-flex:+", "weak-flex:-"):
        ids = preset(name)
        assert ids.identities
    assert len(preset("wnov2").identities) == 3
    assert len(preset("wlc2+flex").identities) == 3
    with pytest.raises(ValueError):
        preset("unknown-preset")


def _reference_presets():
    """Every preset built with the magma sugar, to pin the grammar text."""
    rs = associator(v(1), v(2), v(3)) - associator(v(1), v(3), v(2))
    wn = v(1) * associator(v(2), v(3), v(4)) - associator(v(2), v(3), v(1) * v(4))
    lc = v(1) * (v(2) * v(3)) - v(2) * (v(1) * v(3))
    met = (v(1) * v(2)) * (v(3) * v(4))

    def weak_flex(sign):
        return associator(v(1) * v(2), v(3), v(4)) - associator(
            v(4), v(3), v(1) * v(2)).scaled(sign)

    return {
        "rs": [rs], "wn": [wn], "lc": [lc], "met": [met],
        "flex": [associator(v(1), v(2), v(3)) + associator(v(3), v(2), v(1))],
        "antiflex": [associator(v(1), v(2), v(3)) - associator(v(3), v(2), v(1))],
        "weak-flex:+": [weak_flex(+1)], "weak-flex:-": [weak_flex(-1)],
        "wlc2": [wn, met], "wnov2": [rs, wn, met], "nov2": [rs, wn, lc, met],
        "lie-nilp:1": [v(1) * v(2)],
        "lie-nilp:3": [commutator(commutator(v(1) * v(2), v(3)), v(4))],
        "jordan-nilp:2": [circle(v(1) * v(2), v(3))],
    }


def test_presets_match_the_sugar_built_reference():
    ref = _reference_presets()
    composites = {"wlc2+flex": ("wlc2", "flex"), "weak-flex:++flex": ("weak-flex:+", "flex"),
                  "nov2+weak-flex:- + lie-nilp:3": ("nov2", "weak-flex:-", "lie-nilp:3")}
    for name, parts in {**{k: (k,) for k in ref}, **composites}.items():
        want = [f for part in parts for f in ref[part]]
        ids = preset(name)
        assert ids.name == name and ids.identities == tuple(want), name
        # the same coefficients in the same term order
        assert [list(f.terms.items()) for f in ids.identities] == \
            [list(f.terms.items()) for f in want], name


def test_bad_preset_names_are_refused():
    for name in ("", "+", "wnov2+", " + flex"):
        with pytest.raises(ValueError, match="empty preset name"):
            preset(name)
    for name in ("lie-nilp:0", "lie-nilp:-2", "jordan-nilp:0", "wlc2+lie-nilp:0"):
        with pytest.raises(ValueError, match="must be >= 1"):
            preset(name)
    # the "+" of weak-flex:+ is its sign, not a combiner
    plus = preset("weak-flex:+").identities
    assert len(plus) == 1 and plus != preset("weak-flex:-").identities
    assert preset("wlc2+weak-flex:+").identities == preset("wlc2").identities + plus
    assert preset("weak-flex:++flex").identities == plus + preset("flex").identities


def test_linearize_multilinear_renumbers():
    f = v(3) * v(7) - v(7) * v(3)
    g = linearize(f)
    assert sorted({a.index for w in g.terms for a in _leaves(w)}) == [1, 2]


def test_linearize_square():
    # v1*v1 linearizes to v1*v2 + v2*v1
    f = v(1) * v(1)
    g = linearize(f)
    assert g == v(1) * v(2) + v(2) * v(1)


def test_linearize_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        linearize(v(1) * v(2) + v(1) * v(1))


def test_relation_rows_shape():
    m = relation_rows(preset("wnov2"), {1: 1, 2: 1, 3: 1})
    assert m.ncols == 12  # Catalan(2) * 3! = 2 * 6
    assert m.nrows >= 3
    for row in m.rows:
        assert all(0 <= col < m.ncols for col, _ in row)


def test_degree_cap_enforced():
    with pytest.raises(DegreeCapExceeded):
        quotient_dimension(preset("met"), {i: 1 for i in range(1, 8)})
    # raising the cap explicitly is allowed
    quotient_dimension(preset("wnov2"), {1: 2, 2: 1}, cap=7)


def test_dimensions_match_basis_counts_low_degrees():
    for md in ({1: 1, 2: 1}, {1: 2}, {1: 1, 2: 1, 3: 1}, {1: 2, 2: 1},
               {1: 1, 2: 1, 3: 1, 4: 1}, {1: 2, 2: 2}):
        assert quotient_dimension(preset("wnov2"), md) == len(wn_basis(md))
        assert quotient_dimension(preset("wlc2"), md) == len(wlc_basis(md))


def test_multilinear_dimension_sequence():
    wnov2 = preset("wnov2")
    dims = [quotient_dimension(wnov2, {i: 1 for i in range(1, n + 1)})
            for n in (2, 3, 4, 5)]
    assert dims == [2, 9, 16, 5]


def test_q_and_modular_dimensions_agree():
    for name, md, dim in (
            ("wnov2", {1: 1, 2: 1, 3: 1, 4: 1}, 16),
            ("wnov2", {1: 2, 2: 1, 3: 1}, len(wn_basis({1: 2, 2: 1, 3: 1}))),
            ("wlc2", {1: 1, 2: 1, 3: 1, 4: 1}, 72),
            ("wlc2", {1: 2, 2: 1, 3: 1}, 36)):
        for field in (QQ, GF(101), GF(1009)):
            assert quotient_dimension(preset(name), md, field) == dim, (name, md, field)


def test_quotient_basis_spans():
    for name, md, dim in (("wnov2", {1: 1, 2: 1, 3: 1}, 9),
                          ("wlc2", {1: 2, 2: 1}, len(wlc_basis({1: 2, 2: 1})))):
        ids = preset(name)
        basis = quotient_basis(ids, md)
        assert len(basis) == dim == quotient_dimension(ids, md)
        assert all(poly_multidegree(MagmaPoly.basis(w), "x") == md for w in basis)
        matrix = relation_rows(ids, md)
        words = enumerate_words(md)
        pivot_words = {words[col] for col in _echelon(matrix).pivots}
        assert not pivot_words & set(basis)
        # independent modulo the T-ideal, not just a spanning set
        combo = MagmaPoly({w: i + 1 for i, w in enumerate(basis)})
        assert not membership(combo, ids)


def test_membership_of_consequences():
    wnov2 = preset("wnov2")
    # a substitution instance of metabelianity is in the T-ideal
    f = parse_expr("(x1*x2)*(x3*x4)")
    assert membership(f, wnov2)
    # right symmetry instance
    f = parse_expr("A(x1,x2,x3) - A(x1,x3,x2)")
    assert membership(f, wnov2)
    # a plain left-normed word is not
    f = parse_expr("((x1*x2)*x3)*x4")
    assert not membership(f, wnov2)
    # the zero polynomial is trivially a member
    assert membership(parse_expr("x1 - x1"), wnov2)


def test_membership_refuses_a_coefficient_that_has_no_value_mod_p():
    f = parse_expr("1/3 x1*x2")
    with pytest.raises(ValueError, match=r"coefficient 1/3, whose denominator vanishes mod 3"):
        membership(f, preset("wnov2"), GF(3))
    # a coefficient that is 0 mod p drops the term; the rest is tested
    assert membership(parse_expr("3 x1*x2"), preset("wnov2"), GF(3))
    assert not membership(parse_expr("3 x1*x2 + 1/2 ((x1*x2)*x3)*x4"),
                          preset("wnov2"), GF(3))
    assert membership(f, preset("wnov2"), GF(5)) is False


def test_named_presets_are_parsed_once():
    for name in ("wnov2", "wlc2+flex", "weak-flex:+", "lie-nilp:2"):
        assert preset(name) == preset(name)
    assert preset("wnov2") is preset("wnov2")  # parsed on the first call only
    # a refused name is refused again, not remembered
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown identity preset"):
            preset("wnov3")
        with pytest.raises(ValueError, match="must be >= 1"):
            preset("wlc2+lie-nilp:0")


def test_membership_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        membership(parse_expr("x1*x2 + x1"), preset("wnov2"))


def test_malformed_identities_and_members_are_refused():
    with pytest.raises(ValueError, match="zero polynomial"):
        quotient_dimension(IdentitySet("zero", (MagmaPoly.zero(QQ),)), {1: 2})
    with pytest.raises(ValueError, match="not multihomogeneous"):
        quotient_dimension(IdentitySet("mixed", (v(1) * v(2) + v(1),)), {1: 2}, GF(5))
    with pytest.raises(ValueError, match="formal-variable leaf"):
        membership(parse_expr("x1*v1"), preset("wnov2"))


def test_lie_nilp_preset_cuts_dimension():
    # adding commutator-nilpotency shrinks the multilinear degree-3 component
    base = quotient_dimension(preset("wlc2"), {1: 1, 2: 1, 3: 1})
    cut = quotient_dimension(preset("wlc2+lie-nilp:2"), {1: 1, 2: 1, 3: 1})
    assert cut < base


def test_identity_file_roundtrip(tmp_path):
    p = tmp_path / "ids.txt"
    p.write_text(
        "# commutativity and metabelianity\n"
        "v1*v2 - v2*v1 = 0\n"
        "(v1*v2)*(v3*v4) = 0\n"
    )
    ids = load_identity_file(str(p))
    assert len(ids.identities) == 2
    assert quotient_dimension(ids, {1: 1, 2: 1}) == 1


def test_identity_file_rejects_generators(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("x1*x2 = 0\n")
    with pytest.raises(Exception):
        load_identity_file(str(p))


def test_relation_rows_rejects_generator_leaves():
    with pytest.raises(ValueError, match="generator leaf"):
        relation_rows(IdentitySet("mixed", (v(1) * x(1),)), {1: 2})


def test_union_concatenates():
    u = preset("rs").union(preset("met"))
    assert len(u.identities) == 2
    assert "rs" in u.name and "met" in u.name


def test_linearization_refuses_small_characteristic():
    # v1*(v1*v1) repeats v1 three times: its full linearization is 3! times
    # the identity, which vanishes in characteristic 3
    cube = IdentitySet("cube", (v(1) * (v(1) * v(1)),))
    f = parse_expr("x1*(x1*x1)")
    with pytest.raises(ValueError, match="characteristic 3"):
        membership(f, cube, GF(3))
    with pytest.raises(ValueError, match="characteristic 3"):
        quotient_dimension(cube, {1: 3}, GF(3))
    for field in (GF(5), QQ):
        assert membership(f, cube, field)
        assert quotient_dimension(cube, {1: 3}, field) == 1


def test_pivots_independent_of_row_order():
    # the largest-column leads of any echelon form are fixed by the row space
    rng = random.Random(7)
    for name, md in (("wnov2", {1: 1, 2: 1, 3: 1, 4: 1}), ("wlc2", {1: 2, 2: 1, 3: 1})):
        for field in (QQ, GF(1009)):
            matrix = relation_rows(preset(name), md, field)
            rows = list(matrix.rows)
            rng.shuffle(rows)
            ech = Echelon(field)
            for row in rows:
                ech.add_row(dict(row))
            assert ech.pivots.keys() == _echelon(matrix).pivots.keys()


def test_wnov2_degree_six_multilinear_dimension():
    md = {i: 1 for i in range(1, 7)}
    assert quotient_dimension(preset("wnov2"), md, GF(1009)) == 6 == len(wn_basis(md))
    assert quotient_dimension(preset("wlc2"), md, GF(1009)) == 2232 == len(wlc_basis(md))


# One degree-8 query; prints [dimension, seconds, peak RSS in MiB].  Its
# address space is capped at 1 GiB, so that a regression fails with a
# MemoryError instead of taking the host's memory.
_DEGREE_EIGHT = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from metanov import preset, quotient_dimension
from metanov.fields import GF
t = time.perf_counter()
dim = quotient_dimension(preset(sys.argv[1]), {i: 1 for i in range(1, 9)}, GF(1009), cap=8)
print(json.dumps([dim, time.perf_counter() - t,
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]))
"""


@pytest.mark.parametrize("name, basis, want", [("wnov2", wn_basis, 8),
                                               ("wlc2", wlc_basis, 125_120)])
def test_degree_eight_multilinear_dimension(name, basis, want):
    # in a fresh process, so that the peak memory is this query's alone
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", _DEGREE_EIGHT, name], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    dim, seconds, peak_mib = json.loads(proc.stdout)
    assert dim == want == len(basis({i: 1 for i in range(1, 9)}))
    assert seconds <= 10 and peak_mib <= 500, (seconds, peak_mib)


def test_elimination_row_order_keeps_fill_in_low():
    # the rank does not depend on the order rows are fed in, but the work
    # does: short rows first, ties by smallest column, gives 6020 pivot
    # entries here; by largest column 6056, by length alone or unsorted
    # 13594.  rs+wn has no single-word identity, so no shape dies and
    # every consequence row is fed (under wnov2 few rows are left to order).
    matrix = relation_rows(preset("rs+wn"), {i: 1 for i in range(1, 6)}, GF(1009))
    ech = _echelon(matrix)
    assert ech.rank == matrix.ncols - 185
    assert sum(len(p) for p in ech.pivots.values()) <= 6020


def test_vanishing_denominator_is_refused():
    ids = IdentitySet("ids", (parse_identity("1/3 v1*v2 + v2*v1 = 0"),))
    with pytest.raises(ValueError, match=r"1/3 \(v1\*v2\).*mod 3"):
        quotient_dimension(ids, {1: 1, 2: 1}, GF(3))
    # 1/3 = 2 in GF(5): the rows 2 x1x2 + x2x1 and x1x2 + 2 x2x1 are independent
    assert quotient_dimension(ids, {1: 1, 2: 1}, GF(5)) == 0
    assert quotient_dimension(ids, {1: 1, 2: 1}, QQ) == 0


def replace_leaves(w, mapping):
    """Replace leaves by single words."""
    if isinstance(w, Atom):
        return mapping.get(w, w)
    return Node(replace_leaves(w.left, mapping), replace_leaves(w.right, mapping))


def ordered_partitions(md, nblocks):
    """Splits of md into ``nblocks`` nonempty labeled sub-multisets plus a
    (possibly empty) rest: yields (blocks, rest)."""
    if nblocks == 0:
        yield [], dict(md)
        return
    for block in sub_multisets(md):
        if block and md_total(md) - md_total(block) >= nblocks - 1:
            for blocks, rest in ordered_partitions(md_sub(md, block), nblocks - 1):
                yield [block] + blocks, rest


def _reference_rows(ids, md, field):
    """Relation rows built on word trees: every consequence is composed as a
    ``Node`` word and looked up in a word -> column index."""
    words = enumerate_words(md)
    colindex = {w: i for i, w in enumerate(words)}
    hole = Atom("x", 0)
    seen, rows = set(), []
    for f in ids.identities:
        f = linearize(f)
        vs = sorted(poly_multidegree(f, "v"))
        fterms = [(w, field.coerce(c)) for w, c in f.terms.items()]
        for blocks, rest in ordered_partitions(md, len(vs)):
            contexts = enumerate_words({**rest, 0: 1}) if rest else [hole]
            for combo in itertools.product(*(enumerate_words(b) for b in blocks)):
                mapping = {Atom("v", k): w for k, w in zip(vs, combo)}
                subbed = [(replace_leaves(w, mapping), c) for w, c in fterms]
                for ctx in contexts:
                    row = {}
                    for w, c in subbed:
                        col = colindex[replace_leaves(ctx, {hole: w})]
                        row[col] = field.add(row.get(col, field.zero), c)
                    row = {col: c for col, c in row.items() if c != field.zero}
                    if not row:
                        continue
                    lead = max(row)
                    if isinstance(field, Rationals):
                        den = lcm(*(c.denominator for c in row.values()))
                        row = {col: int(c * den) for col, c in row.items()}
                        g = gcd(*row.values()) * (1 if row[lead] > 0 else -1)
                        row = {col: c // g for col, c in row.items()}
                    else:
                        inv = field.inv(row[lead])
                        row = {col: field.mul(c, inv) for col, c in row.items()}
                    norm = tuple(sorted(row.items()))
                    if norm not in seen:
                        seen.add(norm)
                        rows.append(norm)
    return words, rows


def _metabelian_dead(w):
    """Whether some node of w has two factors of degree >= 2."""
    if isinstance(w, Atom):
        return False
    if not isinstance(w.left, Atom) and not isinstance(w.right, Atom):
        return True
    return _metabelian_dead(w.left) or _metabelian_dead(w.right)


def _right_normed_dead(w):
    """Whether some subword of w has the shape a*(b*(c*d))."""
    if isinstance(w, Atom):
        return False
    if isinstance(w.right, Node) and isinstance(w.right.right, Node):
        return True
    return _right_normed_dead(w.left) or _right_normed_dead(w.right)


def _dead_columns(matrix):
    """The columns of ``matrix``'s dead shape ranks."""
    return {col for rank in matrix.dead
            for col in range(rank * matrix.nseq, (rank + 1) * matrix.nseq)}


def _unit_propagated(rows):
    """Row-level unit propagation: a row with one entry off the killed
    columns kills that column, until no row does."""
    dead = set()
    while new := {live[0] for row in rows
                  if len(live := [col for col, _ in row if col not in dead]) == 1}:
        dead |= new
    return dead


def _check_against_reference(ids, md, field, dead_word=lambda w: False):
    """``relation_rows`` against the word-tree reference: its dead columns
    contain the words ``dead_word`` marks and lie in those that row-level
    unit propagation kills (all of them while no letter repeats three
    times), and no row touches one; without dead columns its rows are the
    reference's; in every case the row spaces, the dead columns taken as
    unit rows, contain each other, and the dead and pivot columns are the
    reference echelon's leading columns."""
    matrix = relation_rows(ids, md, field)
    words, rows = _reference_rows(ids, md, field)
    case = (ids.name, md, field)
    dead = _dead_columns(matrix)
    assert matrix.ncols == len(words) == len(shape_preorders(md_total(md))) * matrix.nseq
    assert dead >= {i for i, w in enumerate(words) if dead_word(w)}, case
    propagated = _unit_propagated(rows)
    assert dead == propagated if max(md.values()) <= 2 else dead <= propagated, case
    assert not any(col in dead for row in matrix.rows for col, _ in row), case
    if not matrix.dead:
        assert sorted(matrix.rows) == sorted(rows), case
    ech = _echelon(matrix)
    ref = _echelon(RelationMatrix(len(words), rows, field))
    assert all(not ech.reduce(row) for row in rows), case  # dead entries dropped
    assert all(not ref.reduce(row) for row in matrix.rows), case
    assert all(not ref.reduce({col: 1}) for col in dead), case
    assert ech.pivots.keys() | dead == ref.pivots.keys(), case
    assert ech.rank == ref.rank and matrix.nrows == len(matrix.rows) + len(dead), case


def test_relation_rows_match_word_tree_reference():
    fractional = IdentitySet("fractional", (
        parse_identity("1/2 A(v1,v2,v1) - 2/3 (v1*v2)*v1 = 0"),
        parse_identity("3/4 v1*(v2*v3) + 5/6 (v3*v1)*v2 = 0"),
    ))
    # no single-word identity: the reference's rows, also where swapping two
    # blocks maps the identity to plus or minus itself (rs, flex, lc,
    # antiflex)
    for ids, md, fields in ((fractional, {1: 2, 2: 1, 3: 1}, (QQ, GF(1009))),
                            (fractional, {1: 1, 2: 1, 3: 1}, (QQ, GF(1009))),
                            (preset("rs+wn"), {1: 2, 2: 1, 3: 1, 4: 1}, (QQ, GF(1009))),
                            (preset("flex"), {1: 2, 2: 1, 3: 1}, (QQ, GF(1009))),
                            (preset("lc+antiflex"), {1: 2, 2: 2, 3: 1}, (QQ, GF(1009))),
                            (preset("antiflex"), {1: 2, 2: 1, 3: 1}, (GF(3), GF(5)))):
        for field in fields:
            _check_against_reference(ids, md, field)
    # where that sign depends on the field: v1*v2 + 4 v2*v1 is symmetric mod
    # 3, antisymmetric mod 5 and neither over Q.  Its two terms share a
    # shape and meet at x1*x1, so unit propagation kills columns that no
    # shape-level derivation does; the rows are still the reference's.
    swapped = IdentitySet("swapped", (parse_identity("v1*v2 + 4 v2*v1 = 0"),))
    for field in (QQ, GF(3), GF(5)):
        matrix = relation_rows(swapped, {1: 2, 2: 1}, field)
        _, rows = _reference_rows(swapped, {1: 2, 2: 1}, field)
        assert not matrix.dead and sorted(matrix.rows) == sorted(rows), field
    # with met: the metabelian-dead words are dead columns
    for ids, md, fields in (
            (preset("wnov2"), {i: 1 for i in range(1, 6)}, (QQ,)),
            (preset("wlc2"), {i: 1 for i in range(1, 6)}, (GF(1009),)),
            (preset("nov2"), {1: 2, 2: 2, 3: 1}, (QQ, GF(1009))),
            (preset("wlc2+jordan-nilp:2"), {1: 3, 2: 1}, (QQ, GF(1009))),
            (preset("wlc2+flex"), {1: 2, 2: 1, 3: 1}, (QQ, GF(1009)))):
        for field in fields:
            _check_against_reference(ids, md, field, _metabelian_dead)


@pytest.mark.parametrize("name", ["wnov2", "wlc2", "nov2", "wlc2+flex"])
def test_derived_dead_shapes_match_row_level_unit_propagation(name):
    # the shapes relation_rows derives bottom-up against unit propagation on
    # the word-tree rows of the component alone: equal while no letter
    # repeats three times; past that, terms on one shape can meet in a
    # column and leave a unit row on single columns, which a shape-level
    # derivation does not kill
    ids = preset(name)
    for part in (part for total in range(1, 6) for part in partitions_of(total)):
        md = md_from_list(part)
        for field in (QQ, GF(3), GF(1009)):
            dead = _dead_columns(relation_rows(ids, md, field))
            propagated = _unit_propagated(_reference_rows(ids, md, field)[1])
            if max(part) <= 2:
                assert dead == propagated, (name, part, field)
            else:
                assert dead <= propagated, (name, part, field)


def test_metabelian_live_shapes():
    # 2^(n-2) of the Catalan(n-1) shapes have no node with two factors of
    # degree >= 2; every other word is a dead column, and met has no rows
    for n in range(2, 9):
        matrix = relation_rows(preset("met"), {1: n}, cap=8)
        assert matrix.rows == [] and matrix.nseq == 1
        assert len(shape_preorders(n)) - len(matrix.dead) == 2 ** (n - 2)
        assert _echelon(matrix).rank == len(matrix.dead) == matrix.nrows
    # dead is a set of shape ranks, each standing for nseq columns
    matrix = relation_rows(preset("met"), {1: 2, 2: 2, 3: 1})
    assert matrix.nseq == 30 and len(matrix.dead) == 14 - 8
    assert _echelon(matrix).rank == matrix.nrows == 6 * 30
    for ids, md in ((preset("met"), {1: 2, 2: 2, 3: 1}), (preset("wnov2"), {1: 2, 2: 1, 3: 1}),
                    (preset("wnov2"), {1: 1, 2: 1, 3: 1, 4: 1})):
        for field in (QQ, GF(1009)):
            _check_against_reference(ids, md, field, _metabelian_dead)
    assert quotient_dimension(preset("met"), {1: 3, 2: 2, 3: 1}) == 16 * 60


def test_single_word_filter_is_decided_per_field():
    pruned = IdentitySet("pruned", (
        parse_identity("3 (v1*v2)*(v3*v4) + v1*(v2*(v3*v4)) = 0"), preset("rs").identities[0]))
    vanishing = IdentitySet("vanishing", (
        parse_identity("3 (v1*v2)*(v3*v4) = 0"), preset("rs").identities[0]))
    md = {1: 2, 2: 1, 3: 1, 4: 1}
    for ids, field, dead_word in ((pruned, GF(3), _right_normed_dead),
                                  (vanishing, GF(3), lambda w: False),
                                  (pruned, QQ, lambda w: False),
                                  (vanishing, QQ, _metabelian_dead)):
        _check_against_reference(ids, md, field, dead_word)
    # 3 (v1*v2)*(v3*v4) vanishes mod 3 and contributes no row at all
    matrix = relation_rows(IdentitySet("v", vanishing.identities[:1]), md, GF(3))
    assert matrix.rows == [] and not matrix.dead


def test_membership_drops_dead_words():
    # (x1*x2)*(x3*x4) is one dead column of wlc2; reduced with its dead entry
    # dropped, the member vector is zero
    assert membership(parse_expr("(x1*x2)*(x3*x4)"), preset("wlc2"))
    assert membership(parse_expr("2 (x1*x2)*(x3*x4) - 3 (x4*x3)*(x2*x1)"),
                      preset("wlc2"), GF(1009))
    # a dead word plus a live non-member: the live part decides
    f = parse_expr("(x1*x2)*(x3*x4) + x1*(x2*(x3*x4))")
    assert not membership(f, preset("wnov2"))
    assert not membership(f, preset("wnov2"), GF(1009))


def test_quotient_answers_match_reference_echelon():
    rng = random.Random(11)
    verdicts = set()
    for name in ("wnov2", "wlc2", "nov2", "wlc2+flex"):
        ids = preset(name)
        for md in ({1: 2, 2: 1}, {1: 1, 2: 1, 3: 1, 4: 1}, {1: 2, 2: 1, 3: 1},
                   {1: 2, 2: 2, 3: 1}, {1: 3, 2: 1, 3: 1}):
            for field in (QQ, GF(1009)):
                words, rows = _reference_rows(ids, md, field)
                ref = _echelon(RelationMatrix(len(words), rows, field))
                assert quotient_basis(ids, md, field) == [
                    w for i, w in enumerate(words) if i not in ref.pivots]
                for _ in range(4):
                    vec = {}
                    for row in rng.sample(rows, min(3, len(rows))):
                        for col, c in row:
                            vec[col] = vec.get(col, 0) + c
                    if rng.random() < 0.5:
                        col = rng.randrange(len(words))
                        vec[col] = vec.get(col, 0) + 1
                    vec = {col: c % field.p if field.char else c for col, c in vec.items()}
                    vec = {col: c for col, c in vec.items() if c}
                    f = MagmaPoly({words[col]: c for col, c in vec.items()}, field)
                    if vec:
                        member = membership(f, ids, field)
                        assert member == (not ref.reduce(vec)), (name, md, field)
                        verdicts.add(member)
    assert verdicts == {True, False}


def test_degree_seven_dimensions_match_basis_counts():
    for md, wn_dim, wlc_dim in (({1: 3, 2: 3, 3: 1}, 3, 451),
                                ({1: 3, 2: 2, 3: 1, 4: 1}, 4, 1324)):
        assert len(wn_basis(md)) == wn_dim and len(wlc_basis(md)) == wlc_dim
        assert quotient_dimension(preset("wnov2"), md, GF(1009), cap=7) == wn_dim
        assert quotient_dimension(preset("wlc2"), md, GF(1009), cap=7) == wlc_dim


def _basis_counts(parts, basis):
    return " ".join(f"{part}:{len(basis(md_from_list(part)))}" for part in parts)


def test_verify_degree_seven_dimensions():
    # all 15 multidegrees of degree 7, 1^7 (665,280 columns) included
    parts = list(partitions_of(7))
    assert len(parts) == 15
    results = check_dimensions_degree_7()
    assert len(results) == 2
    for (name, ok, detail), basis in zip(results, (wn_basis, wlc_basis)):
        assert ok and detail == f"[GF(1009)] {_basis_counts(parts, basis)}", (name, detail)


def test_verify_small_characteristic_dimensions():
    parts = [part for total in range(1, 6) for part in partitions_of(total)]
    results = check_dimensions_small_char()
    assert len(results) == 6
    for (name, ok, detail), (p, basis) in zip(
            results, itertools.product((3, 5, 7), (wn_basis, wlc_basis))):
        assert ok and detail == f"[GF({p})] {_basis_counts(parts, basis)}", (name, detail)


def test_bad_nilpotency_order_is_refused():
    for name in ("lie-nilp:x", "jordan-nilp:", "wlc2+lie-nilp:2.5"):
        with pytest.raises(ValueError, match=r"nilp:.*must be an integer"):
            preset(name)


def _leaves(w):
    from metanov.magma import leaves
    return leaves(w)
