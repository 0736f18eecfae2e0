import json
import subprocess
import sys
import time

import pytest

from gradlab import cli, experiments
from gradlab.chains import Chain, ChainLevel
from gradlab.cli import main
from gradlab.permgrp import Perm


def write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "gradlab.cli", *args],
                          capture_output=True, text=True)


@pytest.fixture
def double_config(tmp_path):
    return write_config(tmp_path, {
        "group": {"catalog": "double_f2_ab"},
        "chain": {"type": "cyclic", "weights": {"a0": 1, "a1": 1},
                  "moduli": [2, 4, 8]},
    })


def test_volume_csv_stdout(double_config):
    out = run_cli("volume", "--config", double_config)
    assert out.returncode == 0
    lines = out.stdout.strip().split("\n")
    assert lines[0].startswith("level,index,field,")
    assert lines[1].split(",")[10] == "1/2"
    assert lines[3].split(",")[10] == "1/8"


def test_rank_json_has_sandwich_gap(double_config):
    out = run_cli("rank", "--config", double_config, "--format", "json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["tool"] == "gradlab"
    assert doc["kind"] == "rank"
    assert doc["group"] == "double_f2_ab"
    got = [(r["index"], r["d_lower"], r["d_upper"]) for r in doc["rows"]]
    assert got == [(2, 5, 6), (4, 9, 10), (8, 17, 18)]


def test_out_file_and_field_override(tmp_path):
    config = write_config(tmp_path, {
        "group": {"catalog": "free_2"},
        "chain": {"type": "homology", "moduli": [2, 4]},
    })
    target = tmp_path / "report.csv"
    out = run_cli("homology", "--config", config,
                  "--field", "q", "--field", "gf:2", "--out", str(target))
    assert out.returncode == 0
    assert out.stdout == ""
    lines = target.read_text().strip().split("\n")
    fields = [line.split(",")[2] for line in lines[1:]]
    assert fields == ["q", "gf:2"] * 2


def test_degree_flag(double_config):
    out = run_cli("volume", "--config", double_config, "--degree", "3")
    assert out.returncode == 0
    assert out.stdout.strip().split("\n")[1].split(",")[10] == "0"


def test_selftest_subcommand():
    out = run_cli("selftest")
    assert out.returncode == 0
    assert "10/10 checks passed" in out.stdout
    assert out.stdout.count("PASS") == 10


def test_bad_config_exits_one(tmp_path):
    path = write_config(tmp_path, {
        "group": {"catalog": "nonsense"},
        "chain": {"type": "homology", "moduli": [2]},
    })
    out = run_cli("rank", "--config", path)
    assert out.returncode == 1
    assert "error:" in out.stderr


def test_missing_config_file_exits_one(tmp_path):
    out = run_cli("rank", "--config", str(tmp_path / "absent.json"))
    assert out.returncode == 1
    assert "error:" in out.stderr


@pytest.mark.parametrize("text", [
    b"[" * 200_000,
    b'{"chain": {"type": "homology", "moduli": [' + b"9" * 5000 + b"]}}",
    b"\xff\xfe{}",
], ids=["nested-past-the-recursion-limit", "integer-past-the-digit-limit",
        "not-utf-8"])
def test_unreadable_config_exits_one_naming_the_file(tmp_path, text):
    # raw text: BAD_INPUTS holds dicts, which json.dumps always writes readably
    path = tmp_path / "unreadable.json"
    path.write_bytes(text)
    out = run_cli("homology", "--config", str(path))
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert str(path) in out.stderr


def test_budget_exits_two(tmp_path):
    path = write_config(tmp_path, {
        "group": {"catalog": "free_2"},
        "chain": {"type": "homology", "moduli": [2, 4, 8]},
        "max_cosets": 10,
    })
    out = run_cli("rank", "--config", path)
    assert out.returncode == 2
    assert "resource limit:" in out.stderr


def test_budget_bounds_the_index_of_homology_chains(tmp_path):
    # free_2 mod 128 has index 16384
    path = write_config(tmp_path, {
        "group": {"catalog": "free_2"},
        "chain": {"type": "homology", "moduli": [128]},
    })
    out = run_cli("homology", "--config", path, "--max-cosets", "100000")
    assert out.returncode == 0
    assert out.stdout.split("\n")[1] == "1,16384,q,1,16385,0,,,,,,,"
    out = run_cli("homology", "--config", path, "--max-cosets", "10000")
    assert out.returncode == 2
    assert "above the coset budget 10000" in out.stderr


@pytest.mark.parametrize("chain", [
    {"type": "cyclic", "weights": {"a": 1}, "moduli": [1000000]},
    {"type": "cyclic", "weights": {"a": 1}, "moduli": [10 ** 12]},
    {"type": "fiber", "inner": {"type": "homology", "moduli": [2]},
     "kernel": {"weights": {"a": 1}, "modulus": 10 ** 12}},
])
@pytest.mark.parametrize("kind", ["rank", "volume"])
def test_budget_refuses_cyclic_moduli_before_building_points(tmp_path, chain, kind):
    path = write_config(tmp_path, {"group": {"catalog": "free_2"}, "chain": chain})
    start = time.monotonic()
    out = run_cli(kind, "--config", path, "--max-cosets", "1000")
    assert time.monotonic() - start < 2
    assert out.returncode == 2
    assert "above the coset budget 1000" in out.stderr


Z2_STAR_Z = {"graph": {
    "vertices": [{"type": "abelian", "rank": 2}, {"type": "cyclic"}],
    "edges": [{"source": 0, "target": 1, "edge_block": {"type": "trivial"}}]}}


@pytest.mark.parametrize("group, bound", [
    (Z2_STAR_Z, 8), ({"catalog": "surface_2"}, 4), ({"catalog": "free_2"}, 5)])
@pytest.mark.parametrize("kind", ["rank", "volume"])
def test_budget_bounds_the_low_index_search_of_core_chains(tmp_path, group,
                                                           bound, kind):
    path = write_config(tmp_path, {"group": group,
                                   "chain": {"type": "core", "bounds": [bound]}})
    start = time.monotonic()
    out = run_cli(kind, "--config", path, "--max-cosets", "64")
    assert time.monotonic() - start < 2
    assert out.returncode == 2
    assert "exceeded 640 nodes, ten per coset of the budget 64" in out.stderr


def test_main_callable_in_process(tmp_path, capsys):
    path = write_config(tmp_path, {
        "group": {"catalog": "free_2"},
        "chain": {"type": "homology", "moduli": [2]},
    })
    assert main(["rank", "--config", path]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("level,index,field,")


def test_the_cached_parser_keeps_no_value_between_calls(tmp_path, capsys):
    path = write_config(tmp_path, {
        "group": {"catalog": "double_f2_ab"},
        "chain": {"type": "cyclic", "weights": {"a0": 1, "a1": 1},
                  "moduli": [2, 4, 8]},
        "max_cosets": 5,
    })
    flagged = ["homology", "--config", path, "--field", "gf:3",
               "--field", "gf:5", "--max-cosets", "500"]
    plain = ["homology", "--config", path]

    def report(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    alone = []
    for argv in (flagged, plain):
        cli._parser.cache_clear()
        alone.append(report(argv))
    cli._parser.cache_clear()
    assert [report(flagged), report(plain)] == alone
    # the config's budget of 5 holds once the flags are gone
    assert alone[0][0] == 0 and alone[1][0] == 2
    assert [line.split(",")[2] for line in alone[0][1].split()[1:]] == \
        ["gf:3", "gf:5"] * 3
    with pytest.raises(SystemExit) as err:
        main(["homology"])
    assert err.value.code == 1
    assert "--config" in capsys.readouterr().err
    assert report(flagged) == alone[0]


FREE_2 = {"catalog": "free_2"}
HOMOLOGY_2 = {"type": "homology", "moduli": [2]}

# (config, extra arguments, text stderr must contain)
BAD_INPUTS = {
    "cyclic-without-weights": (
        {"group": FREE_2, "chain": {"type": "cyclic", "moduli": [2]}},
        [], "'weights'"),
    "moduli-string": (
        {"group": FREE_2, "chain": {"type": "homology", "moduli": "ab"}},
        [], "'moduli'"),
    "free-block-without-rank": (
        {"group": {"graph": {"vertices": [{"type": "free"}], "edges": []}},
         "chain": HOMOLOGY_2},
        [], "'rank'"),
    "field-not-a-label": (
        {"group": FREE_2, "chain": HOMOLOGY_2, "fields": [2]},
        [], "'fields'"),
    "catalog-list": (
        {"group": {"catalog": ["free_2"]}, "chain": HOMOLOGY_2},
        [], "catalog"),
    "core-without-bounds": (
        {"group": FREE_2, "chain": {"type": "core"}}, [], "'bounds'"),
    "homology-without-moduli": (
        {"group": FREE_2, "chain": {"type": "homology"}}, [], "'moduli'"),
    "presentation-without-generators": (
        {"group": {"presentation": {"relators": []}}, "chain": HOMOLOGY_2},
        [], "'generators'"),
    "config-number": (7, [], "JSON object"),
    "jobs-key": ({"group": FREE_2, "chain": HOMOLOGY_2, "jobs": 2},
                 [], "'jobs'"),
    "jobs-flag": ({"group": FREE_2, "chain": HOMOLOGY_2},
                  ["--jobs", "2"], "--jobs"),
    "max-cosets-list": ({"group": FREE_2, "chain": HOMOLOGY_2,
                         "max_cosets": [1]}, [], "'max_cosets'"),
    "max-cosets-negative": ({"group": FREE_2, "chain": HOMOLOGY_2,
                             "max_cosets": -5}, [], "'max_cosets'"),
    "volume-degree-bool": ({"group": FREE_2, "chain": HOMOLOGY_2,
                            "volume_degree": True}, [], "'volume_degree'"),
    "graph-vertex-not-an-object": (
        {"group": {"graph": {"vertices": ["free"], "edges": []}},
         "chain": HOMOLOGY_2},
        [], "'vertices'"),
    "fiber-kernel-without-weights": (
        {"group": FREE_2,
         "chain": {"type": "fiber", "inner": HOMOLOGY_2,
                   "kernel": {"modulus": 2}}},
        [], "'weights'"),
    "torus-stage-without-rank": (
        {"group": {"tower": {"base": [{"type": "free", "rank": 2}],
                             "stages": [{"type": "torus", "word": "a0"}]}},
         "chain": HOMOLOGY_2},
        [], "'rank'"),
    # a label is accepted only as FieldSpec.label writes it
    "field-label-not-a-number": (
        {"group": FREE_2, "chain": HOMOLOGY_2, "fields": ["gf:x"]},
        [], "'gf:x'"),
    "field-label-with-space": (
        {"group": FREE_2, "chain": HOMOLOGY_2, "fields": ["gf: 3"]},
        [], "'gf: 3'"),
    "field-label-with-sign": (
        {"group": FREE_2, "chain": HOMOLOGY_2, "fields": ["gf:+3"]},
        [], "'gf:+3'"),
    "fields-repeated": (
        {"group": FREE_2, "chain": HOMOLOGY_2, "fields": ["q", "gf:2", "q"]},
        [], "'fields'"),
    "fields-empty": (
        {"group": FREE_2, "chain": HOMOLOGY_2, "fields": []}, [], "'fields'"),
    # JSON true is a Python int; each of these ran as 1 before
    "moduli-bool": (
        {"group": FREE_2, "chain": {"type": "homology", "moduli": [True, 2]}},
        [], "'moduli'"),
    "bounds-bool": (
        {"group": FREE_2, "chain": {"type": "core", "bounds": [True]}},
        [], "'bounds'"),
    "rank-bool": (
        {"group": {"graph": {"vertices": [{"type": "free", "rank": True}],
                             "edges": []}},
         "chain": HOMOLOGY_2},
        [], "'rank'"),
    "genus-bool": (
        {"group": {"graph": {"vertices": [{"type": "surface", "genus": True}],
                             "edges": []}},
         "chain": HOMOLOGY_2},
        [], "'genus'"),
    "source-bool": (
        {"group": {"graph": {"vertices": [{"type": "free", "rank": 1}] * 2,
                             "edges": [{"source": True, "target": 0,
                                        "iota_word": "a", "tau_word": "a"}]}},
         "chain": HOMOLOGY_2},
        [], "'source'"),
    "target-bool": (
        {"group": {"graph": {"vertices": [{"type": "free", "rank": 1}] * 2,
                             "edges": [{"source": 0, "target": True,
                                        "iota_word": "a", "tau_word": "a"}]}},
         "chain": HOMOLOGY_2},
        [], "'target'"),
    "weights-bool": (
        {"group": FREE_2,
         "chain": {"type": "cyclic", "weights": {"a": True}, "moduli": [2]}},
        [], "'weights'"),
    # each of these ended in a traceback before
    "weights-string": (
        {"group": FREE_2,
         "chain": {"type": "cyclic", "weights": {"a": "x"}, "moduli": [2]}},
        [], "'weights'"),
    "weights-float": (
        {"group": FREE_2,
         "chain": {"type": "cyclic", "weights": {"a": 1.5}, "moduli": [2]}},
        [], "'weights'"),
    "fiber-kernel-weights-string": (
        {"group": FREE_2,
         "chain": {"type": "fiber", "inner": HOMOLOGY_2,
                   "kernel": {"weights": {"a": "x"}, "modulus": 2}}},
        [], "'weights'"),
    "subgroup-words-number": (
        {"group": FREE_2,
         "chain": {"type": "fiber", "inner": HOMOLOGY_2,
                   "subgroup_words": [1]}},
        [], "'subgroup_words'"),
    "relators-number": (
        {"group": {"presentation": {"generators": ["a"], "relators": [3]}},
         "chain": HOMOLOGY_2},
        [], "'relators'"),
    "tower-base-number": (
        {"group": {"tower": {"base": 5}}, "chain": HOMOLOGY_2},
        [], "'base'"),
    # a string base was read one character at a time
    "tower-base-string": (
        {"group": {"tower": {"base": "x"}}, "chain": HOMOLOGY_2},
        [], "'base'"),
    "tower-stages-number": (
        {"group": {"tower": {"base": [{"type": "free", "rank": 2}],
                             "stages": 5}},
         "chain": HOMOLOGY_2},
        [], "'stages'"),
    # found by the config fuzzer
    "block-type-object": (
        {"group": {"graph": {"vertices": [{"type": {"free": 1}, "rank": 2}],
                             "edges": []}},
         "chain": HOMOLOGY_2},
        [], "block type"),
    "presentation-without-a-generator": (
        {"group": {"presentation": {"generators": []}},
         "chain": {"type": "core", "bounds": [2]}},
        [], "no generators"),
    # the string "false" turned the flag on, and a dict label was pasted
    # into every provenance
    "aspherical-string": (
        {"group": {"presentation": {"generators": ["a", "b"],
                                    "relators": ["a^2 b^-3"],
                                    "aspherical": "false"}},
         "chain": HOMOLOGY_2},
        [], "'aspherical'"),
    "fiber-label-object": (
        {"group": FREE_2,
         "chain": {"type": "fiber", "inner": HOMOLOGY_2,
                   "subgroup_words": ["b"], "label": {"edge": "line"}}},
        [], "'label'"),
    # a shadow chain as a product factor failed the cross-check and exited 3
    "product-of-a-fiber-factor": (
        {"group": {"catalog": "f2xf2"},
         "chain": {"type": "product",
                   "factors": [{"type": "fiber", "inner": HOMOLOGY_2,
                                "subgroup_words": ["b"]},
                               HOMOLOGY_2]}},
        [], "'factors'"),
    # keys no reader reads ran silently and exited 0: a tower with "stage"
    # for "stages" was bare F2
    "tower-stage-typo": (
        {"group": {"tower": {"base": [{"type": "free", "rank": 2}],
                             "stage": [{"type": "torus", "rank": 2,
                                        "word": "a0"}]}},
         "chain": HOMOLOGY_2},
        [], "'stage'"),
    "edge-block-typo": (
        {"group": {"graph": {"vertices": [{"type": "free", "rank": 1}] * 2,
                             "edges": [{"source": 0, "target": 1,
                                        "edge_blok": {"type": "trivial"},
                                        "iota_word": "a", "tau_word": "a"}]}},
         "chain": HOMOLOGY_2},
        [], "'edge_blok'"),
    "homology-chain-modulus": (
        {"group": FREE_2, "chain": {"type": "homology", "moduli": [2],
                                    "modulus": 3}},
        [], "'modulus'"),
    # an exponent is read only as str(k) writes it: int() took a^1_0 as
    # a^10, a^-0_1 as a^-1, and a sign, a leading zero or an Arabic-Indic
    # digit as well
    **{f"exponent-{name}": (
        {"group": {"presentation": {"generators": ["a", "b"],
                                    "relators": [f"a^{text} b"]}},
         "chain": HOMOLOGY_2},
        [], f"bad exponent {text!r}")
       for name, text in (("underscore", "1_0"),
                          ("negative-underscore", "-0_1"), ("plus", "+3"),
                          ("leading-zero", "03"), ("arabic-indic", "\u0663"))},
}


@pytest.mark.parametrize("config, extra, named", BAD_INPUTS.values(),
                         ids=BAD_INPUTS.keys())
def test_bad_input_exits_one_without_traceback(tmp_path, config, extra, named):
    out = run_cli("rank", "--config", write_config(tmp_path, config), *extra)
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert named in out.stderr


def _skewed(real, field_label, degree, shift):
    """betti, with b_degree moved by shift over the named field only."""
    def skewed(cx, field):
        b = real(cx, field)
        if field.label == field_label:
            b[degree] += shift
        return b
    return skewed


@pytest.mark.parametrize("field_label, degree, shift, named", [
    ("q", 0, 1, "b0 = 2"),
    ("gf:2", 0, -1, "b0 = 0"),
    ("gf:2", 1, -1, "below b1"),
], ids=["b0-over-q", "b0-over-gf2", "gf2-below-q"])
def test_wrong_betti_numbers_exit_three(tmp_path, monkeypatch, capsys,
                                        field_label, degree, shift, named):
    monkeypatch.setattr(experiments, "betti",
                        _skewed(experiments.betti, field_label, degree, shift))
    path = write_config(tmp_path, {"group": FREE_2, "chain": HOMOLOGY_2,
                                   "fields": ["q", "gf:2"]})
    assert main(["homology", "--config", path]) == 3
    assert named in capsys.readouterr().err


_S3_MOVES = (Perm((1, 0, 2)), Perm((0, 2, 1)))
_STEP = (Perm((1, 2, 0)), Perm((0, 1, 2)))


@pytest.mark.parametrize("images, named", [
    (_S3_MOVES, "does not act regularly"),
    (_STEP, "relator 0 survives"),
], ids=["not-regular", "surviving-relator"])
def test_a_hand_built_level_that_fails_its_certificate_exits_three(
        tmp_path, monkeypatch, capsys, images, named):
    # three points, claimed index 3: S_3 is transitive there but not
    # regular; a 3-cycle acts regularly but does not kill a^2
    def hand_built(p, moduli, max_index):
        level = ChainLevel(3, images, 3, "by hand")
        return Chain(p, (level,)).validate()
    monkeypatch.setattr(experiments, "homology_cover_chain", hand_built)
    group = {"presentation": {"generators": ["a", "b"], "relators": ["a^2"]}}
    path = write_config(tmp_path, {"group": group, "chain": HOMOLOGY_2})
    assert main(["homology", "--config", path]) == 3
    assert named in capsys.readouterr().err
