from fractions import Fraction

import pytest

from gradlab.chains import Chain
from gradlab.errors import ResourceExhausted
from gradlab.experiments import (
    CSV_COLUMNS,
    MV_COLUMNS,
    ExperimentConfig,
    resolve_group,
    resolve_chain,
    run_experiment,
    emit_report,
    parse_report,
)
from gradlab.homology import QQ, GF2


def make(kind, group, chain, **kw):
    cfg = ExperimentConfig.from_dict({"group": group, "chain": chain, **kw})
    return run_experiment(kind, cfg)


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


def test_deficiency_gradient_surface():
    table = make("deficiency", {"catalog": "surface_2"},
                 {"type": "homology", "moduli": [2]})
    (row,) = table.rows
    assert (row["index"], row["b1"], row["b2"]) == (16, 34, 1)
    assert row["def_lower"] == row["def_upper"] == -33
    assert row["target_dg"] == Fraction(-2)
    # both bounds over the index approach the euler characteristic
    assert Fraction(row["def_upper"], row["index"]) == Fraction(-33, 16)


def test_deficiency_lower_bound_needs_asphericity():
    table = make("deficiency", {"catalog": "abelian_3"},
                 {"type": "cyclic", "weights": {"x1": 1}, "moduli": [2]})
    (row,) = table.rows
    assert row["def_lower"] is None
    assert any("def_lower omitted" in n for n in table.notes)


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
    back = parse_report(text)
    assert back.rows == table.rows


def test_json_round_trip():
    table = make("volume", {"catalog": "double_f2_ab"},
                 {"type": "cyclic", "weights": {"a0": 1, "a1": 1},
                  "moduli": [2, 4]})
    text = emit_report(table, "json")
    assert '"tool": "gradlab"' in text
    assert '"1/2"' in text  # fractions serialize as strings
    back = parse_report(text)
    assert back.rows == table.rows
    assert back.kind == "volume"
    assert back.group_name == table.group_name
    assert back.chain_indices == (2, 4)
    with pytest.raises(ValueError):
        emit_report(table, "yaml")


def test_volume_degree_three():
    table = make("volume", {"catalog": "double_f2_ab"},
                 {"type": "cyclic", "weights": {"a0": 1, "a1": 1},
                  "moduli": [2, 4]}, volume_degree=3)
    # the double has no three dimensional cells: ratios vanish
    assert [r["vol2_ratio"] for r in table.rows] == [Fraction(0), Fraction(0)]
    assert "vol2_ratio column holds the degree-3 ratio" in table.notes
