import itertools
import math
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from gradlab.chains import (cyclic_cover_chain, homology_cover_chain,
                            level_coset_table)
from gradlab.cosets import (CosetTable, regular_action_table, spanning_tree,
                            todd_coxeter)
from gradlab.errors import InvariantViolation
from gradlab.experiments import ExperimentConfig, run_experiment
from gradlab import homology
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
    diagonalize,
    kunneth_product_dims,
)
from gradlab.permgrp import Perm, inverse_perm, orbit
from gradlab.towers import catalog
from gradlab.words import presentation_from_texts
from oracles import (
    bareiss_rank,
    coset_face_columns,
    dense_rows,
    dict_rows,
    full_covering_complex,
    gaussian_rank_fractions,
    gaussian_rank_mod,
    integer_smith_divisors,
    kunneth_by_subsets,
    predicted_betti,
    rows_to_columns,
)


def test_field_spec_parse():
    assert FieldSpec.parse("q") == QQ
    assert FieldSpec.parse("gf:2") == GF2
    assert FieldSpec.parse("gf:101").characteristic == 101
    assert GF3.label == "gf:3"
    assert QQ.label == "q"
    for bad in ("gf:4", "gf:1", "r", "gf:x", "gf: 3", "gf:+3", "gf:03", "gf:", "Q"):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            FieldSpec.parse(bad)


def test_field_specs_compare_and_hash_by_characteristic():
    parsed = FieldSpec.parse("gf:3")
    assert parsed == GF3 and parsed is not GF3
    assert hash(parsed) == hash(GF3)
    assert {GF3: "three"}[parsed] == "three"
    assert QQ != GF2
    for c, message in ((4, "4 is not prime"),
                       (2 ** 31, "characteristic 2147483648 out of range")):
        with pytest.raises(ValueError) as err:
            FieldSpec(c)
        assert str(err.value) == message


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
    zero = Matrix(1, 2).multiply(a)
    assert (zero.rows, zero.cols, zero.nnz) == (1, 2, 0)
    assert a.multiply(Matrix(2, 3)).is_zero()


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
            assert rank(m, FieldSpec(p)) == gaussian_rank_mod(dense, p)


PRIMES = (2, 3, 5, 2 ** 31 - 1)


@st.composite
def sparse_matrices(draw):
    """Integer matrices with empty rows and columns, zero, tall and wide
    shapes, entries up to 10^6 in size, and products of thin factors so
    that low rank is common."""
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    span = draw(st.sampled_from((1, 3, 10 ** 6)))

    def sparse(n, k):
        if not (n and k):
            return Matrix(n, k)
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, k - 1))
        return Matrix(n, k, draw(st.dictionaries(
            cells, st.integers(-span, span), max_size=n * k)))

    if draw(st.booleans()):
        return sparse(rows, cols)
    inner = draw(st.integers(0, 3))
    return sparse(rows, inner).multiply(sparse(inner, cols))


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_rank_matches_the_oracles(m):
    dense = dense_rows(m)
    want = gaussian_rank_fractions(dense)
    assert bareiss_rank(dict_rows(m), m.cols) == want
    assert rank(m, QQ) == want
    for p in PRIMES:
        want = gaussian_rank_mod(dense, p)
        assert bareiss_rank(dense, m.cols, p) == want
        assert rank(m, FieldSpec(p)) == want


def euler(cx):
    return sum((-1) ** i * d for i, d in enumerate(cx.dims))


def full_complex(t):
    """The oracle's whole cover as a library ChainComplex."""
    dims, maps = full_covering_complex(t)
    return ChainComplex(dims, [Matrix(dims[i], dims[i + 1], m)
                               for i, m in enumerate(maps)])


def test_rank_matches_the_oracle_on_catalog_levels():
    checked = 0
    for entry in catalog().values():
        p = entry.presentation
        for level in homology_cover_chain(p, [2, 4]).levels:
            if level.index > 256:
                continue
            t = level_coset_table(p, level)
            cx = covering_complex(t)
            # the collapsed cover's d1 is zero; the full cover's is not
            maps = cx.boundaries + full_complex(t).boundaries[:1]
            rows = [dict_rows(b) for b in maps]
            for field in (QQ, GF2, GF3):
                want = [bareiss_rank(r, b.cols, field.characteristic or None)
                        for r, b in zip(rows, maps)]
                assert [rank(b, field) for b in maps] == want
                checked += len(maps)
                # betti adds the residual's rank to one shared pass over Z
                r1, r2 = want[:2]
                d0, d1, d2 = cx.dims
                assert betti(cx, field) == [d0 - r1, d1 - r1 - r2, d2 - r2]
    assert checked >= 100


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_betti_of_one_boundary_matches_the_oracles(m):
    dense = dense_rows(m)
    cx = ChainComplex((m.rows, m.cols), (m,))
    want = gaussian_rank_fractions(dense)
    assert betti(cx, QQ) == [m.rows - want, m.cols - want]
    for p in PRIMES:
        want = gaussian_rank_mod(dense, p)
        assert betti(cx, FieldSpec(p)) == [m.rows - want, m.cols - want]


def test_unit_pass_leaves_rows_without_a_unit_in_the_residual():
    # content 2: rank 1 over Q and GF(3), 0 over GF(2); no +-1 pivot at all
    m = Matrix(1, 2, {(0, 0): 2, (0, 1): 2})
    cx = ChainComplex((1, 2), (m,))
    assert betti(cx, QQ) == [0, 1]
    assert betti(cx, GF2) == [1, 2]
    assert betti(cx, GF3) == [0, 1]
    ((pivots, residual),) = cx.unit_reduced
    assert pivots == 0
    assert dense_rows(residual) == [[2, 2]]
    # one unit pivot, after which the other row is 2 * (0, 1): left over
    m = Matrix(2, 2, {(0, 0): 1, (0, 1): 1, (1, 0): 3, (1, 1): 5})
    ((pivots, residual),) = ChainComplex((2, 2), (m,)).unit_reduced
    assert pivots == 1
    assert dense_rows(residual) == [[2]]


def test_betti_runs_the_unit_pass_once_per_complex(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return unit_reduce(m)

    unit_reduce = homology._unit_reduce
    monkeypatch.setattr(homology, "_unit_reduce", counted)
    p = catalog()["surface_2"].presentation
    level = homology_cover_chain(p, [2]).levels[0]
    cx = covering_complex(level_coset_table(p, level))
    assert [betti(cx, f) for f in (QQ, GF2, GF3)] == [[1, 34, 1]] * 3
    assert calls == list(cx.boundaries)


@st.composite
def signed_graph_matrices(draw):
    """Integer matrices whose rows are mostly edges of a signed graph on the
    columns: two +-1 entries of equal or opposite sign, at times on one
    column, where they add to 0 or +-2.  The other rows are general sparse
    rows with entries up to 3 in size."""
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(1, 7))
    col = st.integers(0, cols - 1)
    m = Matrix(rows, cols)
    for r in range(rows):
        if draw(st.integers(0, 3)):
            for _ in range(2):
                m.add(r, draw(col), draw(st.sampled_from((1, -1))))
        else:
            for c, v in draw(st.dictionaries(col, st.integers(-3, 3))).items():
                m.add(r, c, v)
    return m


@settings(max_examples=300, deadline=None)
@given(signed_graph_matrices())
def test_unit_pass_on_signed_graph_rows_matches_the_oracles(m):
    dense = dense_rows(m)
    cx = ChainComplex((m.rows, m.cols), (m,))
    ((pivots, residual),) = cx.unit_reduced
    for p in (0, 2, 3, 5):
        want = gaussian_rank_mod(dense, p) if p else gaussian_rank_fractions(dense)
        assert betti(cx, FieldSpec(p)) == [m.rows - want, m.cols - want]
        left = bareiss_rank(dict_rows(residual), residual.cols, p or None)
        assert pivots + left == bareiss_rank(dict_rows(m), m.cols, p or None)


def test_unit_pass_collapses_the_dual_tree_of_surface_covers(monkeypatch):
    # every edge of a surface cover lies on two faces with opposite signs,
    # so d2 is a signed graph's incidence matrix: the union-find takes all
    # index - 1 pivots and the Markowitz loop is handed no row
    handed = []

    def counted(rows, ncols, p):
        handed.append(sum(1 for row in rows if row))
        return eliminate(rows, ncols, p)

    eliminate = homology._eliminate
    monkeypatch.setattr(homology, "_eliminate", counted)
    p = catalog()["surface_2"].presentation
    for level in homology_cover_chain(p, [2, 4]).levels:
        cx = covering_complex(level_coset_table(p, level))
        pivots, residual = cx.unit_reduced[1]
        assert pivots == level.index - 1
        assert residual.nnz == 0
    assert len(handed) == 4 and not any(handed)


def test_odd_dual_cycles_of_a_nonorientable_surface_leave_a_residual():
    # <a, b, c | a a b b c c> is the nonorientable surface of genus 3, and
    # its covers of odd index are nonorientable too: an odd dual cycle
    # closes into a row +-2, which only GF(2) sees vanish
    p = presentation_from_texts(("a", "b", "c"), ("a a b b c c",))
    chain = cyclic_cover_chain(p, {"a": 1, "b": 1, "c": -2}, [3, 9])
    for level in chain.levels:
        t = level_coset_table(p, level)
        cx = covering_complex(t)
        assert cx.unit_reduced[1][1].nnz > 0
        full = full_complex(t)
        for field in (QQ, GF2, GF3):
            assert betti(cx, field) == betti(full, field)
        assert [betti(cx, f)[2] for f in (QQ, GF2, GF3)] == [0, 1, 0]


@st.composite
def dense_integer_rows(draw):
    """(rows, ncols): empty, zero, tall and wide dense integer matrices,
    mostly zeros, with entries up to 12 in size."""
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.integers(-12, 12))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(dense_integer_rows())
@example(([], 0))
@example(([], 2))
@example(([[0, 0, 0]] * 4, 3))
# the three-relator lattice plus 6 Z^3: index 12, two entries above 1
@example(([[2, 4, -2], [0, 6, 3], [4, 0, 6], [6, 0, 0], [0, 6, 0],
           [0, 0, 6]], 3))
def test_diagonalize_matches_the_smith_oracle(case):
    rows, ncols = case
    diagonal, v = diagonalize(rows, ncols)
    smith = integer_smith_divisors(rows)
    assert len(diagonal) == len(smith)
    assert all(d > 0 for d in diagonal)
    assert math.prod(diagonal) == math.prod(smith)
    for p in (2, 3, 5):
        assert (sum(d % p == 0 for d in diagonal)
                == sum(d % p == 0 for d in smith))
    # v is unimodular: every invariant factor of it is 1
    assert integer_smith_divisors(v) == [1] * ncols
    # rows . v lies in the lattice of D, column k in diagonal[k] Z and the
    # columns past the rank in 0; with the products equal, it is all of it
    for row in rows:
        image = [sum(x * v[i][k] for i, x in enumerate(row))
                 for k in range(ncols)]
        assert all(x % d == 0 for x, d in zip(image, diagonal))
        assert not any(image[len(diagonal):])


def _homology_rows(group, moduli):
    cfg = ExperimentConfig.from_dict({
        "group": group, "chain": {"type": "homology", "moduli": moduli},
        "fields": ["q", "gf:2"]})
    return run_experiment("homology", cfg).rows


def test_genus_two_b1_at_index_4096():
    rows = _homology_rows({"catalog": "surface_2"}, [2, 4, 8])
    top = [(r["field"], r["b1"]) for r in rows if r["index"] == 4096]
    assert top == [("q", 8194), ("gf:2", 8194)]


def test_genus_two_b1_at_index_1296_in_another_generator_order():
    # a closed surface cover of index n has Euler characteristic -2n, so
    # b1 = 2n + 2 over every field
    group = {"presentation": {
        "generators": ["b2", "a2", "b1", "a1"],
        "relators": ["a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1"],
        "aspherical": True}}
    rows = _homology_rows(group, [3, 6])
    top = [(r["field"], r["b1"]) for r in rows if r["index"] == 1296]
    assert top == [("q", 2594), ("gf:2", 2594)]


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
    assert euler(cx) == 0


def test_projective_plane_covering_complex():
    p = presentation_from_texts(("a",), ("a^2",))
    t = regular_action_table(p, [(1, 0), (1, 0)], (0, 1))
    full = full_complex(t)
    assert full.dims == (2, 2, 2)
    cx = covering_complex(t)
    assert cx.dims == (1, 1, 2)
    assert euler(cx) == euler(full) == 2
    assert betti(cx, QQ) == betti(full, QQ) == [1, 0, 1]  # a sphere
    sub = todd_coxeter(p, (p.word("a"),))
    one = covering_complex(sub)
    # the selftest's torsion case: the face's boundary 2a has no unit, so
    # the shared pass over Z leaves it and only GF(2) sees it vanish
    assert [r.nnz for _, r in one.unit_reduced] == [0, 1]
    assert betti(one, QQ) == [1, 0, 0]
    assert betti(one, GF2) == [1, 1, 1]
    assert betti(one, GF3) == [1, 0, 0]


def _check_against_full_cover(t):
    cx = covering_complex(t)
    k = t.num_cosets
    nx = t.presentation.num_generators
    assert cx.dims == (1, k * (nx - 1) + 1, k * len(t.presentation.relators))
    assert cx.boundaries[0].nnz == 0
    full = full_complex(t)
    assert euler(cx) == euler(full)
    for field in (QQ, GF2, GF3):
        assert betti(cx, field) == betti(full, field)


def test_collapsed_cover_matches_the_full_cover_on_catalog_levels():
    checked = 0
    for entry in catalog().values():
        p = entry.presentation
        for level in homology_cover_chain(p, [2, 4]).levels:
            if level.index <= 256:
                _check_against_full_cover(level_coset_table(p, level))
                checked += 1
    assert checked >= 20


def _orbit_table(p, images):
    """Coset table of the stabilizer of 0: the action on the orbit of 0."""
    points = orbit(0, images)
    position = {x: i for i, x in enumerate(points)}
    pairs = [(g.images, inverse_perm(g).images) for g in images]
    return CosetTable(p, (), rows_to_columns([position[y] for g, ginv in pairs
                                              for y in (g[x], ginv[x])]
                                             for x in points)).validate()


@st.composite
def finite_quotient_tables(draw):
    """Tables of random finite quotients of free_2 and surface_2 acting on
    the orbit of 0.  Surface images are (x, y, y, x y^j), whose commutators
    cancel, or two commuting pairs of powers."""
    degree = draw(st.integers(1, 6))

    def perm():
        return Perm(draw(st.permutations(range(degree))))

    def power(g, e):
        out = Perm(range(degree))
        for _ in range(e):
            out = out * g
        return out

    name = draw(st.sampled_from(("free_2", "surface_2")))
    p = catalog()[name].presentation
    if name == "free_2":
        images = [perm(), perm()]
    elif draw(st.booleans()):
        x, y = perm(), perm()
        images = [x, y, y, x * power(y, draw(st.integers(0, 5)))]
    else:
        z, w = perm(), perm()
        images = [power(g, draw(st.integers(0, 5))) for g in (z, z, w, w)]
    return _orbit_table(p, images)


@settings(max_examples=150, deadline=None)
@given(finite_quotient_tables())
def test_collapsed_cover_matches_the_full_cover_on_random_quotients(t):
    _check_against_full_cover(t)


def test_covering_complex_rejects_a_disconnected_table():
    # a fixes both cosets: two components, so no spanning tree
    p = presentation_from_texts(("a",), ("a^2",))
    t = CosetTable(p, (), rows_to_columns([[0, 0], [1, 1]]))
    with pytest.raises(InvariantViolation, match="not transitive"):
        covering_complex(t)


def test_covering_complex_rejects_a_relator_that_does_not_close():
    # a acts as a 3-cycle, so a^2 does not close; with d1 collapsed the
    # trace check is what stands for d1.d2 = 0
    p = presentation_from_texts(("a",), ("a^2",))
    t = CosetTable(p, (), rows_to_columns([[1, 2], [2, 0], [0, 1]]))
    with pytest.raises(InvariantViolation, match="does not close"):
        covering_complex(t)
    # the least coset, then the first relator: on the cosets of <a> in
    # Sym(3), relator 1 (a) first fails from a later coset than relator
    # 2 (b), which fails from coset 0
    sym3 = presentation_from_texts(("a", "b"), ("a^2", "b^2", "a b a b a b"))
    columns = todd_coxeter(sym3, (sym3.word("a"),)).columns
    for relators, alpha, j in ((("a^2", "a", "b"), 0, 2),
                               (("a^2", "a"), 1, 1)):
        t = CosetTable(presentation_from_texts(("a", "b"), relators), (), columns)
        unclosed = coset_face_columns(t, spanning_tree(t)[1])[1]
        assert min(unclosed) == (alpha, j)
        with pytest.raises(InvariantViolation,
                           match=f"^relator {j} does not close from coset {alpha}$"):
            covering_complex(t)


def _lockstep_tables():
    """Tables of every catalog group's homology [2, 4] levels, the
    three-relator presentation, a nonorientable surface's cyclic covers
    and index-1 levels."""
    for entry in catalog().values():
        for level in homology_cover_chain(entry.presentation, [2, 4]).levels:
            yield level_coset_table(entry.presentation, level)
    three = presentation_from_texts(("a", "b", "c"),
                                    ("a^2 b^4 c^-2", "b^6 c^3", "a^4 c^6"))
    nonorientable = presentation_from_texts(("a", "b", "c"), ("a a b b c c",))
    chains = ((three, homology_cover_chain(three, [6, 12])),
              (nonorientable, cyclic_cover_chain(
                  nonorientable, {"a": 1, "b": 1, "c": -2}, [3, 9])),
              (three, homology_cover_chain(three, [1, 2])),
              (catalog()["surface_2"].presentation,
               homology_cover_chain(catalog()["surface_2"].presentation, [1, 2])))
    for p, chain in chains:
        for level in chain.levels:
            yield level_coset_table(p, level)


def test_lockstep_faces_match_the_per_coset_trace():
    indices = []
    for t in _lockstep_tables():
        cx = covering_complex(t)
        d2 = cx.boundaries[1]
        entries, unclosed = coset_face_columns(t, spanning_tree(t)[1])
        assert not unclosed
        assert {(s, face): v for s, row in enumerate(dict_rows(d2))
                for face, v in row.items()} == entries
        traced = ChainComplex(cx.dims, (Matrix(1, d2.rows), Matrix(d2.rows, d2.cols, entries)))
        for field in (QQ, GF2, GF3):
            assert betti(cx, field) == betti(traced, field)
        indices.append(t.num_cosets)
    assert indices.count(1) == 2 and max(indices) == 4096 and len(indices) == 32


def test_no_stored_zeros_in_covers_or_residuals():
    # the index-1 levels are here on purpose: a commutator's letters
    # cancel there on a single edge; the last complex has a row that
    # merging column 0 into column 1 cancels down to 2 e_2
    merge = Matrix(2, 3, {(0, 0): 1, (0, 1): -1, (1, 0): 1, (1, 1): -1, (1, 2): 2})
    complexes = itertools.chain(map(covering_complex, _lockstep_tables()),
                                [ChainComplex((1, 2, 3), (Matrix(1, 2), merge))])
    dense_checked = 0
    for cx in complexes:
        for m in (cx.boundaries[1], *(residual for _, residual in cx.unit_reduced)):
            assert all(all(row.values()) for row in dict_rows(m))
            # a dense copy of an index-4096 d2 would take gigabytes
            if m.rows * m.cols <= 10 ** 6:
                assert m.nnz == sum(v != 0 for row in dense_rows(m) for v in row)
                dense_checked += 1
    assert dense_checked >= 60


def test_eliminations_leave_the_stored_rows_alone():
    # rank and the unit pass eliminate in place, so each must work on
    # copies of the rows a matrix hands out
    groups = catalog()
    complexes = [covering_complex(level_coset_table(p, level))
                 for p in (groups[name].presentation
                           for name in ("surface_2", "f2xf2", "free_2"))
                 for level in homology_cover_chain(p, [2, 4]).levels]
    # a row of three entries, a row of +-2s and a +-1 graph edge
    m = Matrix(3, 3, {(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 2): -2,
                      (2, 1): 1, (2, 2): -1, (0, 2): 3})
    complexes.append(ChainComplex((3, 3), (m,)))
    snapshots = [[dict_rows(b) for b in cx.boundaries] for cx in complexes]
    for cx in complexes:
        for field in (QQ, GF2, GF3):
            betti(cx, field)
            for b in cx.boundaries:
                rank(b, field)
    assert [[dict_rows(b) for b in cx.boundaries] for cx in complexes] == snapshots


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
            field = QQ if p is None else FieldSpec(p)
            assert betti(cx, field) == predicted_betti(cx.dims, dense, p)


def test_torus_complex():
    p = presentation_from_texts(("a", "b"), ("a b a^-1 b^-1",))
    t = todd_coxeter(p, (p.word("a"), p.word("b")))
    cx = covering_complex(t)
    assert betti(cx, QQ) == [1, 2, 1]
    assert betti(cx, GF2) == [1, 2, 1]
    assert euler(cx) == 0


def test_kunneth_dims_match_subset_oracle():
    cases = [((3, 5),), ((5, 5),), ((2, 3, 4),), ((1, 1, 1, 1),)]
    for (dims,) in cases:
        for q in range(len(dims) + 2):
            assert kunneth_product_dims(dims, q) == kunneth_by_subsets(dims, q)
    assert kunneth_product_dims((3, 5), 1) == 8
    assert kunneth_product_dims((5, 5), 2) == 25
    assert kunneth_product_dims((2, 3, 4), 2) == 26
    assert kunneth_product_dims((2, 2), 2) == 4
