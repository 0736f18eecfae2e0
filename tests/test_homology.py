import random

import pytest

from gradlab.cosets import todd_coxeter, regular_action_table
from gradlab.errors import InvariantViolation
from gradlab.homology import (
    FieldSpec,
    QQ,
    GF2,
    GF3,
    Matrix,
    rank,
    ChainComplex,
    betti,
    covering_complex,
    kunneth_product_dims,
)
from gradlab.permgrp import Perm
from gradlab.words import presentation_from_texts
from oracles import (
    dense_rows,
    gaussian_rank_fractions,
    gaussian_rank_mod,
    kunneth_by_subsets,
    predicted_betti,
)


def test_field_spec_parse():
    assert FieldSpec.parse("q") == QQ
    assert FieldSpec.parse("gf:2") == GF2
    assert FieldSpec.parse("gf:101").characteristic == 101
    assert GF3.label == "gf:3"
    assert QQ.label == "q"
    for bad in ("gf:4", "gf:1", "r", "gf:x"):
        with pytest.raises(ValueError):
            FieldSpec.parse(bad)


def test_matrix_entry_bookkeeping():
    m = Matrix(2, 3)
    m.add(0, 1, 5)
    m.add(0, 1, -5)
    assert m.nnz == 0
    m.add(1, 2, 4)
    assert m.get(1, 2) == 4
    assert m.get(0, 0) == 0
    with pytest.raises(ValueError):
        m.add(2, 0, 1)
    with pytest.raises(ValueError):
        Matrix(-1, 2)


def test_matrix_multiply():
    a = Matrix(2, 2, {(0, 0): 1, (0, 1): 2, (1, 1): 3})
    b = Matrix(2, 1, {(0, 0): 4, (1, 0): 5})
    c = a.multiply(b)
    assert dense_rows(c) == [[14], [15]]
    with pytest.raises(ValueError):
        b.multiply(a)


def random_matrix(rng, rows, cols, density=0.5, span=4):
    m = Matrix(rows, cols)
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                m.add(r, c, rng.randint(-span, span))
    return m


def test_rank_against_dense_elimination():
    rng = random.Random(20260822)
    for trial in range(40):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = random_matrix(rng, rows, cols)
        dense = dense_rows(m)
        assert rank(m, QQ) == gaussian_rank_fractions(dense)
        for p in (2, 3, 5):
            assert rank(m, FieldSpec.gf(p)) == gaussian_rank_mod(dense, p)


def test_rank_characteristic_sensitive():
    m = Matrix(2, 2, {(0, 0): 2, (0, 1): 4, (1, 0): 6, (1, 1): 8})
    assert rank(m, QQ) == 2
    assert rank(m, GF2) == 0
    assert rank(m, GF3) == 2
    assert rank(Matrix(3, 3), QQ) == 0


def test_chain_complex_validation():
    d1 = Matrix(1, 2, {(0, 0): 1})
    with pytest.raises(ValueError):
        ChainComplex((1, 3), (d1,))
    # composite d1 . d2 must vanish
    d1 = Matrix(1, 1, {(0, 0): 1})
    d2 = Matrix(1, 1, {(0, 0): 1})
    with pytest.raises(InvariantViolation):
        ChainComplex((1, 1, 1), (d1, d2))


def test_circle_and_euler():
    cx = ChainComplex((1, 1), (Matrix(1, 1),))
    assert betti(cx, QQ) == [1, 1]
    assert cx.euler_characteristic() == 0


def test_projective_plane_covering_complex():
    p = presentation_from_texts(("a",), ("a^2",))
    t = regular_action_table(p, [Perm((1, 0))])
    cx = covering_complex(t)
    assert cx.dims == (2, 2, 2)
    assert betti(cx, QQ) == [1, 0, 1]  # the double cover is a sphere
    sub = todd_coxeter(p, (p.word("a"),))
    one = covering_complex(sub)
    assert betti(one, QQ) == [1, 0, 0]
    assert betti(one, GF2) == [1, 1, 1]
    assert betti(one, GF3) == [1, 0, 0]


def test_covering_complex_against_smith_form_prediction():
    # mod-p betti must equal the rational betti plus torsion jumps
    surf = presentation_from_texts(
        ("a1", "b1", "a2", "b2"),
        ("a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1",))
    tables = [
        todd_coxeter(presentation_from_texts(("a",), ("a^2",)), ()),
        todd_coxeter(surf, tuple(surf.word(w) for w in (
            "a1", "b1", "a2", "b2^2", "b2 a1 b2^-1", "b2 b1 b2^-1", "b2 a2 b2^-1"))),
    ]
    for t in tables:
        cx = covering_complex(t)
        dense = [dense_rows(b) for b in cx.boundaries]
        for p in (None, 2, 3):
            field = QQ if p is None else FieldSpec.gf(p)
            assert betti(cx, field) == predicted_betti(cx.dims, dense, p)


def test_torus_complex():
    p = presentation_from_texts(("a", "b"), ("a b a^-1 b^-1",))
    t = todd_coxeter(p, (p.word("a"), p.word("b")))
    cx = covering_complex(t)
    assert betti(cx, QQ) == [1, 2, 1]
    assert betti(cx, GF2) == [1, 2, 1]
    assert cx.euler_characteristic() == 0


def test_kunneth_dims_match_subset_oracle():
    cases = [((3, 5),), ((5, 5),), ((2, 3, 4),), ((1, 1, 1, 1),)]
    for (dims,) in cases:
        for q in range(len(dims) + 2):
            assert kunneth_product_dims(dims, q) == kunneth_by_subsets(dims, q)
    assert kunneth_product_dims((3, 5), 1) == 8
    assert kunneth_product_dims((5, 5), 2) == 25
    assert kunneth_product_dims((2, 3, 4), 2) == 26
    assert kunneth_product_dims((2, 2), 2) == 4
