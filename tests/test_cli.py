import json
import subprocess
import sys

import pytest

from gradlab.cli import main


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


def test_budget_exits_two(tmp_path):
    path = write_config(tmp_path, {
        "group": {"catalog": "free_2"},
        "chain": {"type": "homology", "moduli": [2, 4, 8]},
        "max_cosets": 10,
    })
    out = run_cli("rank", "--config", path)
    assert out.returncode == 2
    assert "resource limit:" in out.stderr


def test_main_callable_in_process(tmp_path, capsys):
    path = write_config(tmp_path, {
        "group": {"catalog": "free_2"},
        "chain": {"type": "homology", "moduli": [2]},
    })
    assert main(["rank", "--config", path]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("level,index,field,")


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
}


@pytest.mark.parametrize("config, extra, named", BAD_INPUTS.values(),
                         ids=BAD_INPUTS.keys())
def test_bad_input_exits_one_without_traceback(tmp_path, config, extra, named):
    out = run_cli("rank", "--config", write_config(tmp_path, config), *extra)
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert named in out.stderr
