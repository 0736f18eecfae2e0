import csv
import io
import json
from fractions import Fraction

import pytest

from gradlab import experiments
from gradlab.chains import Chain, level_coset_table
from gradlab.errors import InvariantViolation, ResourceExhausted
from gradlab.experiments import (
    CSV_COLUMNS,
    MV_COLUMNS,
    ExperimentConfig,
    _level_cells,
    resolve_group,
    resolve_chain,
    run_experiment,
    emit_report,
)
from gradlab.gog import subgroup_volume_vector
from gradlab.homology import QQ, GF2, covering_complex
from gradlab.permgrp import PermGroup
from gradlab.towers import catalog


def make(kind, group, chain, **kw):
    cfg = ExperimentConfig.from_dict({"group": group, "chain": chain, **kw})
    return run_experiment(kind, cfg)


FREE = {"catalog": "free_2"}
TORUS = {"type": "torus", "rank": 2, "word": "a0"}
KERNEL = {"weights": {"a": 1}, "modulus": 2}


def _with(spec, key):
    return dict(spec, **{key: 1})


@pytest.mark.parametrize("group, chain, message", [
    ({"presentation": {"generators": ["a"], "relator": ["a^2"]}}, None,
     "unknown presentation keys ['relator']"),
    ({"product": {"factors": [FREE] * 2, "f": 1}},
     None, "unknown product keys ['f']"),
    ({"graph": {"vertices": [{"type": "free", "rank": 2}], "edges": [],
                "loops": []}}, None, "unknown graph keys ['loops']"),
    ({"graph": {"vertices": [{"type": "free", "rank": 2, "genus": 2}],
                "edges": []}}, None, "unknown free block keys ['genus']"),
    ({"graph": {"vertices": [{"type": "free", "rank": 1}] * 2,
                "edges": [{"source": 0, "target": 1,
                           "edge_block": {"type": "trivial"},
                           "iota_word": "a"}]}}, None,
     "unknown graph edge keys ['iota_word']"),
    ({"graph": {"vertices": [{"type": "free", "rank": 1}] * 2,
                "edges": [{"source": 0, "target": 1,
                           "edge_block": {"type": "cyclic", "rank": 1},
                           "iota_word": "a", "tau_word": "a"}]}}, None,
     "unknown cyclic block keys ['rank']"),
    ({"tower": {"base": [{"type": "free", "rank": 2}], "stage": [TORUS]}},
     None, "unknown tower keys ['stage']"),
    ({"tower": {"base": [{"type": "free", "rank": 2}],
                "stages": [_with(TORUS, "genus")]}}, None,
     "unknown tower torus stage keys ['genus']"),
    ({"tower": {"base": [{"type": "free", "rank": 2}],
                "stages": [{"type": "surface", "genus": 1,
                            "boundaries": ["a0"], "word": "a0"}]}}, None,
     "unknown tower surface stage keys ['word']"),
    (FREE, {"type": "core", "bounds": [2], "moduli": [2]},
     "unknown core chain keys ['moduli']"),
    (FREE, {"type": "homology", "moduli": [2], "modulus": 3},
     "unknown homology chain keys ['modulus']"),
    (FREE, {"type": "cyclic", "weights": {"a": 1}, "moduli": [2],
            "bounds": [2]}, "unknown cyclic chain keys ['bounds']"),
    ({"catalog": "f2xf2"}, {"type": "product", "factors": [], "inner": {}},
     "unknown product chain keys ['inner']"),
    (FREE, {"type": "fiber", "inner": {"type": "homology", "moduli": [2]},
            "subgroup_words": ["b"], "lable": "x"},
     "unknown fiber chain keys ['lable']"),
    (FREE, {"type": "fiber", "inner": {"type": "homology", "moduli": [2]},
            "kernel": _with(KERNEL, "moduli")},
     "unknown fiber kernel keys ['moduli']"),
    (FREE, {"type": "fiber", "inner": {"type": "homology", "moduli": [2]},
            "subgroup_words": ["b"], "kernel": KERNEL},
     "fiber chain takes subgroup_words or kernel, not both"),
])
def test_every_spec_rejects_a_key_it_does_not_read(group, chain, message):
    with pytest.raises(ValueError) as err:
        resolve_chain(chain or {"type": "homology", "moduli": [2]},
                      resolve_group(group))
    assert str(err.value) == message


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"group": {"catalog": "free_2"}})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"group": {}, "chain": {}, "mystery": 1})
    with pytest.raises(ValueError, match="jobs"):
        ExperimentConfig.from_dict({"group": {}, "chain": {}, "jobs": 2})
    cfg = ExperimentConfig.from_dict({
        "group": {"catalog": "free_2"},
        "chain": {"type": "homology", "moduli": [2]},
        "fields": ["q", "gf:2"],
    })
    assert cfg.fields == (QQ, GF2)


def test_resolve_group_kinds():
    assert resolve_group({"catalog": "free_2"}).euler == -1
    with pytest.raises(ValueError):
        resolve_group({"catalog": "no_such_entry"})
    with pytest.raises(ValueError):
        resolve_group({"catalog": "x", "extra": "y"})
    g = resolve_group({"presentation": {
        "generators": ["a", "b"], "relators": ["a b a^-1 b^-1"]}})
    assert g.presentation.num_generators == 2
    g = resolve_group({"product": {"factors": [{"catalog": "free_2"},
                                               {"catalog": "free_3"}]}})
    assert g.euler == 2
    assert g.name == "free_2 x free_3"
    g = resolve_group({"graph": {
        "vertices": [{"type": "free", "rank": 2}, {"type": "free", "rank": 2}],
        "edges": [{"source": 0, "target": 1, "iota_word": "a b", "tau_word": "a b"}],
    }})
    assert g.euler == -2
    g = resolve_group({"tower": {
        "base": [{"type": "free", "rank": 2}],
        "stages": [{"type": "torus", "rank": 2, "word": "a0"}],
    }})
    assert g.euler == -1


def test_resolve_chain_kinds():
    group = resolve_group({"catalog": "free_2"})
    chain = resolve_chain({"type": "homology", "moduli": [2, 4]}, group)
    assert chain.indices() == (4, 16)
    chain = resolve_chain({"type": "core", "bounds": [2]}, group)
    assert chain.indices() == (4,)
    chain = resolve_chain({"type": "cyclic", "weights": {"a": 1}, "moduli": [2]},
                          group)
    assert chain.indices() == (2,)
    with pytest.raises(ValueError):
        resolve_chain({"type": "mystery"}, group)
    with pytest.raises(ValueError):
        resolve_chain({"type": "product", "factors": []}, group)
    with pytest.raises(ValueError):
        resolve_chain({"type": "fiber", "inner": {"type": "homology", "moduli": [2]}},
                      group)


def test_rank_gradient_free_group():
    table = make("rank", {"catalog": "free_2"},
                 {"type": "homology", "moduli": [2, 4, 8]})
    assert table.kind == "rank"
    assert table.columns == CSV_COLUMNS
    assert table.chain_indices == (4, 16, 64)
    got = [(r["level"], r["index"], r["field"], r["b0"], r["b1"], r["b2"],
            r["d_lower"], r["d_upper"], r["target_rg"]) for r in table.rows]
    assert got == [
        (1, 4, "q", 1, 5, 0, 5, 5, Fraction(1)),
        (2, 16, "q", 1, 17, 0, 17, 17, Fraction(1)),
        (3, 64, "q", 1, 65, 0, 65, 65, Fraction(1)),
    ]
    # free groups attain the gradient exactly: (d_upper - 1) / index
    for r in table.rows:
        assert Fraction(r["d_upper"] - 1, r["index"]) == r["target_rg"]
    assert [e["volume_vector"] for e in table.extras] == [[1, 5], [1, 17], [1, 65]]


@pytest.mark.parametrize("first, target", [
    ({"catalog": "surface_2"}, 0),
    ({"catalog": "f2xf2"}, 0),
    # Z/2 has a finite abelianization, so only one factor is known infinite
    ({"presentation": {"generators": ["a"], "relators": ["a^2"]}}, None),
], ids=["surface", "nested-product", "finite-factor"])
def test_rank_target_of_a_product_is_0_or_blank(first, target):
    # -chi would be -2 on surface_2 x free_2 and -1 on f2xf2 x free_2
    chain = {"type": "product",
             "factors": [{"type": "homology", "moduli": [2]}] * 2}
    table = make("rank", {"product": {"factors": [first, FREE]}}, chain)
    assert [row["target_rg"] for row in table.rows] == [target]
    assert any(n.startswith("target_rg omitted") for n in table.notes) == (
        target is None)


@pytest.mark.parametrize("presentation", [
    {"generators": ["a"], "relators": ["a^2"]},
    # F2 x F2 spelled out, not as a product spec
    {"generators": ["a", "b", "c", "d"],
     "relators": ["a c a^-1 c^-1", "a d a^-1 d^-1",
                  "b c b^-1 c^-1", "b d b^-1 d^-1"]},
], ids=["finite", "f2xf2-presentation"])
def test_rank_target_is_blank_when_chi_is_positive(presentation):
    # chi = 1 on both, so -chi would print -1
    table = make("rank", {"presentation": presentation},
                 {"type": "homology", "moduli": [2]})
    assert [row["target_rg"] for row in table.rows] == [None]
    assert ("target_rg omitted: -chi = -1 is negative, and a rank gradient "
            "never is") in table.notes


def test_deficiency_gradient_surface():
    table = make("deficiency", {"catalog": "surface_2"},
                 {"type": "homology", "moduli": [2]})
    (row,) = table.rows
    assert (row["index"], row["b1"], row["b2"]) == (16, 34, 1)
    assert row["def_lower"] == row["def_upper"] == -33
    assert row["target_dg"] == Fraction(-2)
    # both bounds over the index approach the euler characteristic
    assert Fraction(row["def_upper"], row["index"]) == Fraction(-33, 16)


def test_deficiency_of_a_graph_with_a_surface_vertex_is_pinched():
    # free_2 and surface_2 glued along a cyclic edge: every vertex
    # presentation is aspherical, so the graph's is
    graph = {"vertices": [{"type": "free", "rank": 2},
                          {"type": "surface", "genus": 2}],
             "edges": [{"source": 0, "target": 1,
                        "iota_word": "a b", "tau_word": "a1"}]}
    table = make("deficiency", {"graph": graph},
                 {"type": "homology", "moduli": [2]})
    (row,) = table.rows
    assert row["index"] == 32
    assert row["def_lower"] == row["def_upper"] == -97
    assert table.notes == ()


def test_deficiency_lower_bound_needs_asphericity():
    table = make("deficiency", {"catalog": "abelian_3"},
                 {"type": "cyclic", "weights": {"x1": 1}, "moduli": [2]})
    (row,) = table.rows
    assert row["def_lower"] is None
    assert any("def_lower omitted" in n for n in table.notes)


# the trefoil group: a one-relator group whose relator is no proper power,
# so aspherical; b1 is 1 over q and 2 over gf:3 on both covers below
TREFOIL = {"presentation": {"generators": ["a", "b"],
                            "relators": ["a^2 b^-3"], "aspherical": True}}


@pytest.mark.parametrize("kind, lower, upper, want", [
    ("rank", "d_lower", "d_upper",
     [(2, "q", 1, 3), (2, "gf:3", 2, 3), (4, "q", 1, 5), (4, "gf:3", 2, 5)]),
    ("deficiency", "def_lower", "def_upper",
     [(2, "q", -1, -1), (2, "gf:3", -1, -1), (4, "q", -1, -1),
      (4, "gf:3", -1, -1)]),
])
def test_rank_and_deficiency_read_every_field(kind, lower, upper, want):
    table = make(kind, TREFOIL, {"type": "homology", "moduli": [2, 4]},
                 fields=["q", "gf:3"])
    assert [(r["index"], r["field"], r[lower], r[upper])
            for r in table.rows] == want


def test_volume_gradient_double():
    table = make("volume", {"catalog": "double_f2_ab"},
                 {"type": "cyclic", "weights": {"a0": 1, "a1": 1},
                  "moduli": [2, 4, 8]})
    got = [(r["level"], r["index"], r["vol2_ratio"]) for r in table.rows]
    assert got == [(1, 2, Fraction(1, 2)), (2, 4, Fraction(1, 4)),
                   (3, 8, Fraction(1, 8))]
    # a slower chain: the edge word dies at every level, ratio stays put
    table = make("volume", {"catalog": "double_f2_ab"},
                 {"type": "cyclic",
                  "weights": {"a0": 1, "b0": 1, "a1": 1, "b1": 1},
                  "moduli": [2, 4, 8]})
    got = [(r["level"], r["vol2_ratio"]) for r in table.rows]
    assert got == [(1, Fraction(1)), (2, Fraction(1, 2)), (3, Fraction(1, 4))]


def test_volume_gradient_requires_graph():
    with pytest.raises(ValueError):
        make("volume", {"catalog": "f2xf2"},
             {"type": "product", "factors": [{"type": "homology", "moduli": [2]},
                                             {"type": "homology", "moduli": [2]}]})


def test_homology_gradient_product_with_kunneth_check(monkeypatch):
    validated = []
    validate = Chain.validate

    def counted(chain):
        validated.append(chain)
        return validate(chain)
    monkeypatch.setattr(Chain, "validate", counted)
    table = make("homology", {"catalog": "f2xf2"},
                 {"type": "product",
                  "factors": [{"type": "homology", "moduli": [2]},
                              {"type": "homology", "moduli": [2]}]},
                 fields=["q", "gf:2"])
    got = [(r["level"], r["index"], r["field"], r["b0"], r["b1"], r["b2"])
           for r in table.rows]
    assert got == [(1, 16, "q", 1, 10, 25), (1, 16, "gf:2", 1, 10, 25)]
    for e in table.extras:
        assert e["factor_ranks"] == [5, 5]
        assert e["predicted_betti"] == [1, 10, 25]
        assert e["betti"] == e["predicted_betti"]
    # the two factor chains and their product, each validated once: the
    # check reuses the factor chains instead of building them again
    assert len(validated) == 3


THREE_FREE_FACTORS = ({"catalog": "f2xf2xf2"},
                      {"type": "product",
                       "factors": [{"type": "homology", "moduli": [2]}] * 3})


def test_kunneth_check_reads_b2_only_for_two_factors():
    # with three factors the product presentation's 2-complex is only the
    # 2-skeleton of F_5^3: its b2 exceeds the group's Kunneth 75
    table = make("homology", *THREE_FREE_FACTORS, fields=["q", "gf:2"])
    assert [(r["field"], r["index"], r["b0"], r["b1"]) for r in table.rows] \
        == [("q", 64, 1, 15), ("gf:2", 64, 1, 15)]
    assert all(r["b2"] > 75 for r in table.rows)
    assert table.extras[0]["predicted_betti"] == [1, 15, 75, 125]


def test_kunneth_check_still_reads_b1_of_three_factors(monkeypatch):
    real = experiments.betti

    def shifted(cx, field):
        b = real(cx, field)
        b[1] += 1
        return b
    monkeypatch.setattr(experiments, "betti", shifted)
    with pytest.raises(InvariantViolation, match="b1 = 16 but the factor "
                       r"ranks \[5, 5, 5\] predict 15"):
        make("homology", *THREE_FREE_FACTORS, fields=["q", "gf:2"])


# groups without a graph of groups, and chains over them
GRAPHLESS = {
    "surface2-presentation": (
        {"presentation": {"generators": ["a1", "b1", "a2", "b2"],
                          "relators": ["a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1"],
                          "aspherical": True}},
        {"type": "homology", "moduli": [2, 4]}),
    "f2xf2-product": (
        {"catalog": "f2xf2"},
        {"type": "product",
         "factors": [{"type": "homology", "moduli": [2, 4]}] * 2}),
    "three-relators": (
        {"presentation": {"generators": ["a", "b", "c"],
                          "relators": ["a^2 b^4 c^-2", "b^6 c^3",
                                       "a^4 c^6"]}},
        {"type": "homology", "moduli": [6, 12]}),
    "trefoil-with-empty-relator": (
        {"presentation": {"generators": ["a", "b"],
                          "relators": ["a^2 b^-3", "a a^-1"]}},
        {"type": "homology", "moduli": [2, 4]}),
    "f2xz-product": (
        {"product": {"factors": [{"catalog": "free_2"},
                                 {"catalog": "free_1"}]}},
        {"type": "product",
         "factors": [{"type": "homology", "moduli": [2]},
                     {"type": "cyclic", "weights": {"a": 1},
                      "moduli": [3]}]}),
}


@pytest.mark.parametrize("name", GRAPHLESS)
def test_graphless_level_cells_are_the_collapsed_cover(name):
    group_spec, chain_spec = GRAPHLESS[name]
    group = resolve_group(group_spec)
    assert group.graph is None
    for level in resolve_chain(chain_spec, group).levels:
        extra = {}
        cells = _level_cells(group, level, extra)
        table = level_coset_table(group.presentation, level)
        assert cells.entries == covering_complex(table).dims
        assert extra == {}


def test_graph_level_cells_are_the_covering_formula():
    groups = [g for g in catalog().values() if g.graph is not None]
    assert len(groups) >= 10
    for group in groups:
        chain = resolve_chain({"type": "homology", "moduli": [2]}, group)
        for level in chain.levels:
            extra = {}
            cells = _level_cells(group, level, extra)
            assert cells == subgroup_volume_vector(group.graph, level)
            assert extra == {"volume_vector": list(cells.entries)}


def test_core_volume_builds_one_stabilizer_chain_per_level(monkeypatch):
    # free_2 is one vertex carrying every image, so its local index is the
    # order core_chain already computed: no second Schreier-Sims
    builds = []
    build = PermGroup._stabilizer_chain

    def counted(group):
        if group._chain is None:
            builds.append(group.degree)
        return build(group)
    monkeypatch.setattr(PermGroup, "_stabilizer_chain", counted)
    table = make("volume", {"catalog": "free_2"},
                 {"type": "core", "bounds": [2, 3, 4]})
    assert builds == [7, 28, 132]
    assert [(r["level"], r["index"], r["vol2_ratio"]) for r in table.rows] \
        == [(1, 4, Fraction(0)), (2, 972, Fraction(0)),
            (3, 8153726976, Fraction(0))]
    # Nielsen-Schreier: a subgroup of index i in F_2 is free of rank i + 1
    assert [e["volume_vector"] for e in table.extras] == [
        [1, 5], [1, 973], [1, 8153726977]]


def test_mv_check_free_product():
    table = make("mvcheck", {"catalog": "z_star_z"},
                 {"type": "homology", "moduli": [2, 4, 8]})
    assert table.columns == MV_COLUMNS
    got = [(r["level"], r["index"], r["j"], r["lhs"], r["rhs"], r["slack"])
           for r in table.rows]
    assert got == [
        (1, 4, 1, 5, 12, 7), (1, 4, 2, 0, 0, 0),
        (2, 16, 1, 17, 40, 23), (2, 16, 2, 0, 0, 0),
        (3, 64, 1, 65, 144, 79), (3, 64, 2, 0, 0, 0),
    ]


def test_mv_check_double():
    table = make("mvcheck", {"catalog": "double_f2_ab"},
                 {"type": "cyclic",
                  "weights": {"a0": 1, "b0": 1, "a1": 1, "b1": 1},
                  "moduli": [2, 4, 8]})
    got = [(r["level"], r["index"], r["j"], r["lhs"], r["rhs"], r["slack"])
           for r in table.rows]
    assert got == [
        (1, 2, 1, 5, 12, 7), (1, 2, 2, 0, 4, 4),
        (2, 4, 1, 9, 16, 7), (2, 4, 2, 0, 4, 4),
        (3, 8, 1, 17, 24, 7), (3, 8, 2, 0, 4, 4),
    ]
    # no negative slack anywhere
    assert all(r["slack"] >= 0 for r in table.rows)


def test_shadow_chain_reports_indices_only():
    table = make("rank", {"catalog": "free_2"},
                 {"type": "fiber", "inner": {"type": "homology", "moduli": [2, 4]},
                  "subgroup_words": ["b"], "label": "edge line"})
    assert [(r["level"], r["index"]) for r in table.rows] == [(1, 2), (2, 4)]
    assert all(r["b1"] is None and r["d_upper"] is None for r in table.rows)
    assert "shadow chain: only the index column is populated" in table.notes
    assert any("edge line" in n for n in table.notes)


def test_max_cosets_budget_propagates():
    with pytest.raises(ResourceExhausted):
        make("rank", {"catalog": "free_2"},
             {"type": "homology", "moduli": [2, 4]}, max_cosets=10)


def test_csv_round_trip():
    table = make("rank", {"catalog": "free_2"},
                 {"type": "homology", "moduli": [2, 4]})
    text = emit_report(table, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1].startswith("1,4,q,1,5,0,5,5,,,,1,")
    back = list(csv.DictReader(io.StringIO(text)))
    assert back == [{c: "" if row[c] is None else str(row[c]) for c in CSV_COLUMNS}
                    for row in table.rows]


def test_json_round_trip():
    table = make("volume", {"catalog": "double_f2_ab"},
                 {"type": "cyclic", "weights": {"a0": 1, "a1": 1},
                  "moduli": [2, 4]})
    text = emit_report(table, "json")
    assert '"tool": "gradlab"' in text
    assert '"1/2"' in text  # fractions serialize as strings
    back = json.loads(text)
    assert back["columns"] == list(table.columns)
    assert back["rows"] == [{c: str(v) if isinstance(v, Fraction) else v
                             for c, v in row.items()} for row in table.rows]
    assert back["kind"] == "volume"
    assert back["group"] == table.group_name
    assert back["chain"]["indices"] == [2, 4]
    with pytest.raises(ValueError):
        emit_report(table, "yaml")


def test_volume_degree_three():
    table = make("volume", {"catalog": "double_f2_ab"},
                 {"type": "cyclic", "weights": {"a0": 1, "a1": 1},
                  "moduli": [2, 4]}, volume_degree=3)
    # the double has no three dimensional cells: ratios vanish
    assert [r["vol2_ratio"] for r in table.rows] == [Fraction(0), Fraction(0)]
    assert "vol2_ratio column holds the degree-3 ratio" in table.notes
