import pytest

from gradlab.cosets import (
    todd_coxeter,
    perm_rep,
    schreier_tree,
    schreier_generators,
    reidemeister_schreier,
    regular_action_table,
    standardized_table,
    low_index_subgroups,
)
from gradlab.errors import ResourceExhausted, InvariantViolation
from gradlab.homology import covering_complex, betti, FieldSpec
from gradlab.permgrp import Perm, word_image
from gradlab.words import presentation_from_texts, abelianized_relator_matrix
from oracles import (
    alternating_tetrahedral_images,
    count_transitive_pairs,
    factorial,
    gaussian_rank_fractions,
)


@pytest.fixture
def free2():
    return presentation_from_texts(("a", "b"), ())


@pytest.fixture
def sym3():
    return presentation_from_texts(("a", "b"), ("a^2", "b^2", "a b a b a b"))


def test_cyclic_enumeration():
    p = presentation_from_texts(("a",), ("a^5",))
    t = todd_coxeter(p, ())
    assert t.num_cosets == 5
    assert t.trace(0, p.word("a^5")) == 0


def test_sym3_counts(sym3):
    assert todd_coxeter(sym3, ()).num_cosets == 6
    assert todd_coxeter(sym3, (sym3.word("a"),)).num_cosets == 3
    assert todd_coxeter(sym3, (sym3.word("a b"),)).num_cosets == 2


def test_tetrahedral_group_against_explicit_permutations():
    p = presentation_from_texts(("a", "b"), ("a^2", "b^3", "a b a b a b"))
    t = todd_coxeter(p, ())
    assert t.num_cosets == 12
    group, images = perm_rep(t)
    assert group.order() == 12
    # the explicit degree-4 model satisfies the same presentation
    a, b = alternating_tetrahedral_images()
    for rel in p.relators:
        assert word_image(rel, [Perm(a), Perm(b)]).is_identity()


def test_perm_rep_respects_relators(sym3):
    t = todd_coxeter(sym3, (sym3.word("a"),))
    _, images = perm_rep(t)
    for rel in sym3.relators:
        assert word_image(rel, images).is_identity()
    # subgroup words fix coset 0
    assert t.trace(0, sym3.word("a")) == 0


def test_validate_catches_corruption(sym3):
    t = todd_coxeter(sym3, ())
    t.table[2][0] = t.table[3][0]
    with pytest.raises(InvariantViolation):
        t.validate()


def test_resource_limit(free2):
    with pytest.raises(ResourceExhausted):
        todd_coxeter(free2, (free2.word("a^50"),), max_cosets=10)


def test_schreier_transversal_carries_basepoint(free2):
    # kernel of the exponent-sum-of-a map onto Z/3
    t = todd_coxeter(free2, tuple(free2.word(w) for w in
                                  ("b", "a^3", "a b a^-1", "a^2 b a^-2")))
    assert t.num_cosets == 3
    transversal = schreier_tree(t)[0]
    assert len(transversal) == t.num_cosets
    assert transversal[0].is_empty()
    for alpha, w in enumerate(transversal):
        assert t.trace(0, w) == alpha


def test_schreier_generator_count_free_group(free2):
    # Nielsen-Schreier: index k in a free group of rank 2 gives rank k+1
    cases = (
        (("a", "b^2", "b a b^-1"), 2),
        (("b", "a^3", "a b a^-1", "a^2 b a^-2"), 3),
    )
    for words, k in cases:
        t = todd_coxeter(free2, tuple(free2.word(w) for w in words))
        assert t.num_cosets == k
        assert len(schreier_generators(t)) == k + 1


def test_rewriting_counts_and_euler_identity():
    surf = presentation_from_texts(
        ("a1", "b1", "a2", "b2"),
        ("a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1",))
    t = todd_coxeter(surf, tuple(surf.word(w) for w in (
        "a1", "b1", "a2", "b2^2", "b2 a1 b2^-1", "b2 b1 b2^-1", "b2 a2 b2^-1")))
    k = t.num_cosets
    assert k == 2
    sub = reidemeister_schreier(t)
    assert sub.num_generators == k * (4 - 1) + 1
    assert len(sub.relators) == k * 1
    # Euler characteristic is multiplicative in the index
    assert 1 - sub.num_generators + len(sub.relators) == k * (1 - 4 + 1)


def test_rewritten_first_homology_matches_cover_complex():
    # b1 of the subgroup two ways: abelianized rewritten presentation
    # versus the chain complex of the covering 2-complex
    surf = presentation_from_texts(
        ("a1", "b1", "a2", "b2"),
        ("a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1",))
    t = todd_coxeter(surf, tuple(surf.word(w) for w in (
        "a1", "b1", "a2", "b2^2", "b2 a1 b2^-1", "b2 b1 b2^-1", "b2 a2 b2^-1")))
    sub = reidemeister_schreier(t)
    mat = abelianized_relator_matrix(sub)
    b1_presentation = sub.num_generators - gaussian_rank_fractions(mat)
    cx = covering_complex(t)
    b1_complex = betti(cx, FieldSpec.rationals())[1]
    assert b1_presentation == b1_complex == 6


def test_regular_action_table(free2):
    images = [Perm((1, 0, 2)), Perm((0, 2, 1))]
    t = regular_action_table(free2, images)
    assert t.num_cosets == 6
    group, action = perm_rep(t)
    assert group.order() == 6
    # kernel membership: subgroup words act trivially on the image side
    for w in t.subgroup_words:
        assert word_image(w, images).is_identity()


def test_regular_action_budget(free2):
    images = [Perm((1, 2, 3, 4, 0)), Perm((1, 0, 2, 3, 4))]
    with pytest.raises(ResourceExhausted):
        regular_action_table(free2, images, max_order=30)


def test_normal_core(sym3):
    t = todd_coxeter(sym3, (sym3.word("a"),))
    core = regular_action_table(sym3, perm_rep(t)[1])
    assert core.num_cosets == 6


def test_standardized_table_counts_conjugates(free2):
    # index 2 subgroups are normal: every basepoint gives the same flattening
    t = todd_coxeter(free2, (free2.word("a"), free2.word("b^2"), free2.word("b a b^-1")))
    assert t.num_cosets == 2
    flat0 = standardized_table(t.table, 0)
    assert standardized_table(t.table, 1) == flat0


def test_low_index_class_and_subgroup_counts(free2):
    by_index = {}
    for t in low_index_subgroups(free2, 3):
        by_index.setdefault(t.num_cosets, []).append(t)
    assert {k: len(v) for k, v in by_index.items()} == {1: 1, 2: 3, 3: 7}
    # total subgroups of index k, via standardized flattenings over basepoints
    for k in (2, 3):
        seen = set()
        for t in by_index[k]:
            for s in range(k):
                seen.add(standardized_table(t.table, s))
        assert len(seen) == count_transitive_pairs(k) // factorial(k - 1)


def test_low_index_respects_relators():
    p = presentation_from_texts(("a", "b"), ("a^2", "b^2", "a b a b a b"))
    tables = low_index_subgroups(p, 6)
    orders = sorted(t.num_cosets for t in tables)
    # Sym(3) has one conjugacy class of subgroups per order divisor
    assert orders == [1, 2, 3, 6]
    for t in tables:
        _, images = perm_rep(t)
        for rel in p.relators:
            assert word_image(rel, images).is_identity()
