import functools
import time

import pytest
from hypothesis import given, settings, strategies as st

from gradlab.chains import homology_cover_chain, level_coset_table
from gradlab.cosets import (
    CosetTable,
    todd_coxeter,
    perm_rep,
    schreier_generators,
    spanning_tree,
    base_orbit,
    regular_action_table,
    standardized_table,
    low_index_subgroups,
)
from gradlab.errors import ResourceExhausted, InvariantViolation
from gradlab.homology import covering_complex, betti, FieldSpec
from gradlab.permgrp import Perm, PermGroup, carry, orbit
from gradlab.towers import catalog
from gradlab.words import Presentation, Word, presentation_from_texts
from oracles import (
    alternating_tetrahedral_images,
    closure_index,
    count_subgroups_by_actions,
    count_transitive_pairs,
    element_action_rows,
    entrywise_table_error,
    factorial,
    full_covering_complex,
    predicted_betti,
    rows_to_columns,
    tree_edge_numbers,
    tuple_columns,
    tuple_word_image,
    walked_point_rows,
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
    assert carry(p.word("a^5"), t.columns, (0,)) == (0,)


def test_sym3_counts(sym3):
    assert todd_coxeter(sym3, ()).num_cosets == 6
    assert todd_coxeter(sym3, (sym3.word("a"),)).num_cosets == 3
    assert todd_coxeter(sym3, (sym3.word("a b"),)).num_cosets == 2


def test_tetrahedral_group_against_explicit_permutations():
    p = presentation_from_texts(("a", "b"), ("a^2", "b^3", "a b a b a b"))
    t = todd_coxeter(p, ())
    assert t.num_cosets == 12
    assert PermGroup(t.num_cosets, perm_rep(t)).order() == 12
    # the explicit degree-4 model satisfies the same presentation
    a, b = alternating_tetrahedral_images()
    for rel in p.relators:
        assert carry(rel, tuple_columns([a, b]), tuple(range(4))) == (0, 1, 2, 3)


def test_perm_rep_respects_relators(sym3):
    t = todd_coxeter(sym3, (sym3.word("a"),))
    images = perm_rep(t)
    cosets = tuple(range(t.num_cosets))
    for rel in sym3.relators:
        assert carry(rel, tuple_columns([g.images for g in images]),
                     cosets) == cosets
    # subgroup words fix coset 0
    assert carry(sym3.word("a"), t.columns, (0,)) == (0,)


def _fails_as_the_entrywise_scan(table):
    """The message validate raises, which must be the one the per-entry
    scan meets first."""
    with pytest.raises(InvariantViolation) as err:
        table.validate()
    assert str(err.value) == entrywise_table_error(table)
    return str(err.value)


def _with_entry(rows, alpha, c, beta):
    """A copy of the rows with rows[alpha][c] set to beta; None drops the
    entry, which leaves row alpha short."""
    rows = [list(row) for row in rows]
    if beta is None:
        del rows[alpha][c]
    else:
        rows[alpha][c] = beta
    return rows


def test_validate_catches_corruption(sym3):
    good = todd_coxeter(sym3, ())
    n, rows = good.num_cosets, good.table
    t = CosetTable(sym3, (), rows_to_columns(_with_entry(rows, 2, 0, rows[3][0])))
    assert _fails_as_the_entrywise_scan(t) == "inverse entry mismatch at (2,0)"
    # every short row, out-of-range entry and inverse mismatch on one entry
    seen = set()
    for alpha, row in enumerate(rows):
        short = CosetTable(sym3, (), rows_to_columns(_with_entry(rows, alpha, -1, None)))
        with pytest.raises(InvariantViolation, match=f"^row {alpha} has 3 columns, wanted 4$"):
            short.validate()
        try:
            assert entrywise_table_error(short) == f"row {alpha} has 3 columns, wanted 4"
            seen.add("short")
        except IndexError:
            pass  # the per-entry scan stepped into the short row first
        for c in range(4):
            for beta in (-1, n, n + 3, *(b for b in range(n) if b != row[c])):
                bad = CosetTable(sym3, (), rows_to_columns(_with_entry(rows, alpha, c, beta)))
                seen.add(_fails_as_the_entrywise_scan(bad).split(" ")[0])
    # an entry out of range can first show as the inverse mismatch of the
    # entry that leads to it
    assert seen == {"short", "entry", "inverse"}
    # relators: the least coset, then the first relator; here relator 2
    # fails from coset 0 and relator 1 only from a later coset
    cosets_of_a = rows_to_columns(todd_coxeter(sym3, (sym3.word("a"),)).table)
    loose = presentation_from_texts(("a", "b"), ("a^2", "a", "b"))
    assert (_fails_as_the_entrywise_scan(CosetTable(loose, (), cosets_of_a))
            == "relator Word([(1, 1)]) does not close from coset 0")
    assert carry(loose.word("a"), CosetTable(loose, (), cosets_of_a).columns,
                 (1,)) != (1,)
    relabel = presentation_from_texts(("a", "b"), ("a b", "b a b a"))
    assert (_fails_as_the_entrywise_scan(CosetTable(relabel, (), rows_to_columns(rows)))
            .startswith("relator"))
    words = tuple(sym3.word(w) for w in ("a^2", "b", "a"))
    assert (_fails_as_the_entrywise_scan(CosetTable(sym3, words, rows_to_columns(rows)))
            == "subgroup word Word([(1, 1)]) leaves coset 0")


def test_validate_names_a_column_of_another_length():
    # the rows view stops at the shortest column, so the lengths are
    # compared before the rows are scanned
    checked = 0
    for t in _complete_tables():
        n = t.num_cosets
        for c in range(len(t.columns)):
            for column in (t.columns[c][:-1], (*t.columns[c], 0)):
                columns = list(t.columns)
                columns[c] = column
                with pytest.raises(InvariantViolation) as err:
                    CosetTable(t.presentation, (), columns).validate()
                wanted = (f"column {c} has {len(column)} entries, column 0 has {n}" if c
                          else f"column 1 has {n} entries, column 0 has {len(column)}")
                assert str(err.value) == wanted
                checked += 1
    assert checked > 100
    free1 = presentation_from_texts(("a",), ())
    with pytest.raises(InvariantViolation, match="^column 1 has 3 entries, column 0 has 2$"):
        CosetTable(free1, (), [(1, 0), (1, 0, 2)]).validate()
    # columns of length 0 leave no coset 0 to be the subgroup, whatever
    # their number
    for columns in ([()], [(), ()]):
        with pytest.raises(InvariantViolation, match="^no cosets$"):
            CosetTable(free1, (free1.word("a"),), columns).validate()


@functools.cache
def _complete_tables():
    """Tables to corrupt: catalog homology levels and enumerations."""
    tables = []
    for name in ("free_2", "surface_2", "abelian_2", "double_f2_ab"):
        p = catalog()[name].presentation
        tables += [level_coset_table(p, level)
                   for m in (2, 3) for level in homology_cover_chain(p, [m]).levels]
    sym3 = presentation_from_texts(("a", "b"), ("a^2", "b^2", "a b a b a b"))
    a4 = presentation_from_texts(("a", "b"), ("a^2", "b^3", "a b a b a b"))
    tables += [todd_coxeter(sym3, ()), todd_coxeter(sym3, (sym3.word("a"),)),
               todd_coxeter(a4, ()), todd_coxeter(dihedral_model(7)[0], ())]
    return tuple(tables)


@st.composite
def corrupted_tables(draw):
    """A complete table with one fault: an entry set past the cosets, set
    negative, or set to another coset; a row without its last entry; or
    one more relator or subgroup word, which may or may not close."""
    t = draw(st.sampled_from(_complete_tables()))
    p, rows, n, words = t.presentation, t.table, t.num_cosets, t.subgroup_words
    alpha = draw(st.integers(0, n - 1))
    c = draw(st.integers(0, 2 * p.num_generators - 1))
    word = st.lists(st.tuples(st.integers(0, p.num_generators - 1),
                              st.sampled_from((1, -1))), min_size=1, max_size=8)
    kind = draw(st.sampled_from(("past", "negative", "other", "short",
                                 "relator", "subgroup word")))
    if kind == "past":
        rows = _with_entry(rows, alpha, c, draw(st.integers(n, 2 * n)))
    elif kind == "negative":
        rows = _with_entry(rows, alpha, c, draw(st.integers(-2 * n, -1)))
    elif kind == "other":
        shift = draw(st.integers(1, max(n - 1, 1)))
        rows = _with_entry(rows, alpha, c, (rows[alpha][c] + shift) % n)
    elif kind == "short":
        # the last entry goes, so every other entry keeps its column
        rows = _with_entry(rows, alpha, -1, None)
    elif kind == "relator":
        p = Presentation(p.generator_names,
                         p.relators + (Word(tuple(draw(word))),))
    else:
        words += (Word(tuple(draw(word))),)
    return CosetTable(p, words, rows_to_columns(rows))


@settings(max_examples=400, deadline=None)
@given(corrupted_tables())
def test_validate_fails_as_the_entrywise_scan_on_one_fault(table):
    ncols = 2 * table.presentation.num_generators
    try:
        expected = entrywise_table_error(table)
    except IndexError:
        # the per-entry scan stepped into the short row before its turn;
        # validate measures every row first
        expected = next(f"row {alpha} has {len(row)} columns, wanted {ncols}"
                        for alpha, row in enumerate(table.table)
                        if len(row) != ncols)
    if expected is None:
        assert table.validate() is table
    else:
        with pytest.raises(InvariantViolation) as err:
            table.validate()
        assert str(err.value) == expected


def dihedral_model(n):
    """<a, b | a^n, b^2, (ab)^2> and its faithful action on an n-gon."""
    p = presentation_from_texts(("a", "b"), (f"a^{n}", "b^2", "a b a b"))
    return p, (tuple((i + 1) % n for i in range(n)), tuple(-i % n for i in range(n)))


def s4_coxeter_model():
    """Sym(4)'s Coxeter presentation and its adjacent transpositions."""
    p = presentation_from_texts(("s", "t", "u"), (
        "s^2", "t^2", "u^2", "s t s t s t", "t u t u t u", "s u s u"))
    return p, ((1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2))


@st.composite
def models_with_subgroup_words(draw):
    p, images = draw(st.one_of(st.integers(3, 12).map(dihedral_model),
                               st.just(s4_coxeter_model())))
    letter = st.tuples(st.integers(0, len(images) - 1), st.sampled_from((1, -1)))
    words = draw(st.lists(st.lists(letter, max_size=6), max_size=3))
    return p, images, words


@settings(max_examples=120, deadline=None)
@given(models_with_subgroup_words())
def test_todd_coxeter_matches_the_permutation_model(case):
    p, images, words = case
    t = todd_coxeter(p, tuple(Word(tuple(w)) for w in words))
    assert t.num_cosets == closure_index(len(images[0]), images, words)
    action = perm_rep(t)
    ident = tuple(range(t.num_cosets))
    for rel in p.relators:
        assert tuple_word_image(t.num_cosets, [g.images for g in action],
                                list(rel.letters())) == ident
    # rows are numbered breadth first from coset 0
    assert (tuple(e for row in t.table for e in row)
            == standardized_table(t.columns, t.num_cosets, 0))


@st.composite
def two_generator_relators(draw):
    letter = st.tuples(st.integers(0, 1), st.sampled_from((1, -1)))
    return draw(st.lists(st.lists(letter, min_size=1, max_size=6),
                         min_size=1, max_size=3))


@settings(max_examples=60, deadline=None)
@given(two_generator_relators())
def test_low_index_counts_match_the_transitive_actions(relators):
    p = Presentation(("a", "b"), tuple(Word(tuple(r)) for r in relators))
    counts = {}
    for t in low_index_subgroups(p, 4):
        k = t.num_cosets
        counts[k] = counts.get(k, 0) + len({standardized_table(t.columns, k, s)
                                            for s in range(k)})
    assert counts == {k: n for k in range(1, 5)
                      if (n := count_subgroups_by_actions(k, relators))}


def test_resource_limit(free2):
    with pytest.raises(ResourceExhausted):
        todd_coxeter(free2, (free2.word("a^50"),), max_cosets=10)


def test_schreier_transversal_carries_basepoint(free2):
    # kernel of the exponent-sum-of-a map onto Z/3
    t = todd_coxeter(free2, tuple(free2.word(w) for w in
                                  ("b", "a^3", "a b a^-1", "a^2 b a^-2")))
    assert t.num_cosets == 3
    # each generator runs along the tree to alpha, across the edge
    # (alpha, g) and back along the tree from alpha.g, so it fixes coset 0
    # when the tree words carry coset 0 where they should
    words = schreier_generators(t)
    assert len(words) == 4
    for w in words:
        assert carry(w, t.columns, (0,)) == (0,)
    assert [w.runs for w in words] == tree_edge_numbers(t.table, 2)[1]


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


def _genus_two_index_two_table():
    surf = presentation_from_texts(
        ("a1", "b1", "a2", "b2"),
        ("a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1",))
    return todd_coxeter(surf, tuple(surf.word(w) for w in (
        "a1", "b1", "a2", "b2^2", "b2 a1 b2^-1", "b2 b1 b2^-1", "b2 a2 b2^-1")))


def test_rewriting_counts_and_euler_identity():
    t = _genus_two_index_two_table()
    k = t.num_cosets
    assert k == 2
    # the collapsed cover: one vertex, k(|X|-1)+1 edges off the tree and
    # k|R| faces, the cells of the rewritten subgroup presentation
    cx = covering_complex(t)
    assert cx.dims == (1, k * (4 - 1) + 1, k * 1) == (1, 7, 2)
    dims, _ = full_covering_complex(t)
    assert dims == (k, k * 4, k * 1)
    # Euler characteristic is multiplicative in the index
    euler = 1 - cx.dims[1] + cx.dims[2]
    assert euler == dims[0] - dims[1] + dims[2] == k * (1 - 4 + 1)


def test_rewritten_first_homology_matches_cover_complex():
    # b1 of the subgroup two ways: the whole cover of the presentation
    # complex, ranked by the oracle, versus the collapsed covering complex
    t = _genus_two_index_two_table()
    dims, maps = full_covering_complex(t)
    rows = [[[m.get((r, c), 0) for c in range(dims[i + 1])]
             for r in range(dims[i])] for i, m in enumerate(maps)]
    b1_full = predicted_betti(dims, rows)[1]
    b1_complex = betti(covering_complex(t), FieldSpec(0))[1]
    assert b1_full == b1_complex == 6


def test_regular_action_table(free2):
    images = [Perm((1, 0, 2)), Perm((0, 2, 1))]
    columns = tuple_columns([g.images for g in images])
    t = regular_action_table(free2, columns,
                             base_orbit(images, PermGroup(3, images).base()))
    assert t.num_cosets == 6
    assert PermGroup(t.num_cosets, perm_rep(t)).order() == 6
    # kernel membership: subgroup words act trivially on the image side
    for w in schreier_generators(t):
        assert carry(w, columns, (0, 1, 2)) == (0, 1, 2)


def test_regular_action_budget(free2):
    images = [Perm((1, 2, 3, 4, 0)), Perm((1, 0, 2, 3, 4))]
    with pytest.raises(ResourceExhausted):
        regular_action_table(free2, tuple_columns([g.images for g in images]),
                             base_orbit(images, PermGroup(5, images).base(),
                                        max_order=30))


@st.composite
def block_groups(draw):
    """Generator images on at most 8 points, each a permutation of every
    block of a random partition into blocks of at most 5 points, so the
    order stays at most 720."""
    sizes = []
    while not sizes or (sum(sizes) < 8 and draw(st.booleans())):
        sizes.append(draw(st.integers(1, min(5, 8 - sum(sizes)))))
    images = []
    for _ in range(draw(st.integers(1, 3))):
        image, offset = [], 0
        for size in sizes:
            block = draw(st.permutations(range(size)))
            image += [offset + x for x in block]
            offset += size
        images.append(tuple(image))
    return images


@settings(max_examples=150, deadline=None)
@given(block_groups())
def test_regular_action_table_on_a_base_matches_the_element_oracle(images):
    p = presentation_from_texts(tuple(f"x{i}" for i in range(len(images))), ())
    perms = [Perm(img) for img in images]
    group = PermGroup(len(images[0]), perms)
    rows = element_action_rows(images)
    walk = base_orbit(perms, group.base())
    columns = tuple_columns(images)
    assert regular_action_table(p, columns, walk).table == rows
    zero = orbit(0, perms)
    if len(zero) < len(rows):
        # 0 alone is no base: the walk is the action on its orbit
        short = regular_action_table(p, columns, zero)
        assert short.num_cosets == len(zero) < len(rows)
        assert short.table == walked_point_rows(images, 0)


def test_normal_core(sym3):
    t = todd_coxeter(sym3, (sym3.word("a"),))
    images = perm_rep(t)
    core = regular_action_table(sym3, t.columns,
                                base_orbit(images, PermGroup(t.num_cosets, images).base()))
    assert core.num_cosets == 6


def test_standardized_table_counts_conjugates(free2):
    # index 2 subgroups are normal: every basepoint gives the same flattening
    t = todd_coxeter(free2, (free2.word("a"), free2.word("b^2"), free2.word("b a b^-1")))
    assert t.num_cosets == 2
    flat0 = standardized_table(t.columns, 2, 0)
    assert standardized_table(t.columns, 2, 1) == flat0


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
                seen.add(standardized_table(t.columns, k, s))
        assert len(seen) == count_transitive_pairs(k) // factorial(k - 1)


def test_low_index_respects_relators():
    p = presentation_from_texts(("a", "b"), ("a^2", "b^2", "a b a b a b"))
    tables = low_index_subgroups(p, 6)
    orders = sorted(t.num_cosets for t in tables)
    # Sym(3) has one conjugacy class of subgroups per order divisor
    assert orders == [1, 2, 3, 6]
    for t in tables:
        images = perm_rep(t)
        for rel in p.relators:
            assert (tuple_word_image(t.num_cosets, [g.images for g in images],
                                     list(rel.letters()))
                    == tuple(range(t.num_cosets)))


def _cycle_table(p, length):
    """The table of Z/length acting on itself, a as the step and b as the
    identity."""
    return CosetTable(p, (), rows_to_columns([(x + 1) % length, (x - 1) % length, x, x]
                                             for x in range(length)))


def test_validate_powers_a_run_across_the_table():
    # a^(10**20) is one run: carried by squaring, not letter by letter
    p = presentation_from_texts(("a", "b"), ("a^100000000000000000000",))
    start = time.monotonic()
    assert _cycle_table(p, 5).validate() is not None
    assert time.monotonic() - start < 1
    # 10**20 is 1 mod 3: the run moves every coset of a 3-cycle
    with pytest.raises(InvariantViolation) as err:
        _cycle_table(p, 3).validate()
    assert str(err.value) == (f"relator {p.relators[0]!r} does not close "
                              "from coset 0")


@st.composite
def tables_and_relators(draw):
    """A table of two random permutations of at most 6 points, and one to
    three relators of one to four runs with exponents of at most 50."""
    n = draw(st.integers(1, 6))
    a, b = (tuple(draw(st.permutations(range(n)))) for _ in range(2))
    ai, bi = (tuple(sorted(range(n), key=g.__getitem__)) for g in (a, b))
    rows = [[a[x], ai[x], b[x], bi[x]] for x in range(n)]
    exponents = st.integers(-50, 50).filter(bool)
    relators = draw(st.lists(
        st.lists(st.tuples(st.integers(0, 1), exponents), min_size=1,
                 max_size=4).map(lambda runs: Word(runs)),
        min_size=1, max_size=3))
    return Presentation(("a", "b"), tuple(relators)), rows


@settings(max_examples=300, deadline=None)
@given(tables_and_relators())
def test_powered_relator_check_fails_as_the_entrywise_scan(drawn):
    p, rows = drawn
    table = CosetTable(p, (), rows_to_columns(rows))
    expected = entrywise_table_error(table)
    if expected is None:
        assert table.validate() is table
    else:
        assert _fails_as_the_entrywise_scan(table) == expected


@st.composite
def transitive_tables(draw):
    """The table of zero to three random permutations of at most 7 points
    acting on the orbit of 0, every coset but 0 renumbered at random."""
    ngens = draw(st.integers(0, 3))
    degree = draw(st.integers(1, 7))
    images = [tuple(draw(st.permutations(range(degree)))) for _ in range(ngens)]
    rows = walked_point_rows(images, 0)
    number = [0, *draw(st.permutations(range(1, len(rows))))]
    renumbered = [None] * len(rows)
    for x, row in enumerate(rows):
        renumbered[number[x]] = [number[y] for y in row]
    p = presentation_from_texts(tuple(f"x{i}" for i in range(ngens)), ())
    return CosetTable(p, (), rows_to_columns(renumbered)).validate()


def _check_tree_edges(t):
    symbols, generators = tree_edge_numbers(t.table, t.presentation.num_generators)
    assert spanning_tree(t)[1] == symbols
    assert [w.runs for w in schreier_generators(t)] == generators


@settings(max_examples=300, deadline=None)
@given(transitive_tables())
def test_tree_edges_and_schreier_generators_match_the_row_walk(t):
    _check_tree_edges(t)


def test_tree_edges_and_schreier_generators_match_the_row_walk_on_catalog_levels():
    checked = 0
    for entry in catalog().values():
        p = entry.presentation
        for level in homology_cover_chain(p, [2, 4]).levels:
            if level.index <= 256:
                _check_tree_edges(level_coset_table(p, level))
                checked += 1
    assert checked >= 20
