"""Tests of the benchmark itself (not of gradlab):

    python3 -m pytest -q perfbench

Span names are checked, never timings.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import gauge
import tracing
import workload

workload._import_gradlab()

from gradlab import cli, selftest  # noqa: E402
from gradlab.chains import Chain  # noqa: E402
from gradlab.permgrp import PermGroup  # noqa: E402
from gradlab.towers import catalog  # noqa: E402

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent /
                        "BENCHMARK.json").read_text())

# small configs that between them reach every hooked config-path function
SMALL = (
    ("homology", {"group": {"catalog": "surface_2"},
                  "chain": {"type": "homology", "moduli": [2]},
                  "fields": ["q", "gf:2"]}),
    ("volume", {"group": {"catalog": "double_f2_ab"},
                "chain": {"type": "cyclic", "weights": {"a0": 1, "a1": 1},
                          "moduli": [2, 4]}}),
    ("mvcheck", {"group": {"catalog": "double_f2_ab"},
                 "chain": {"type": "cyclic", "weights": {"a0": 1, "a1": 1},
                           "moduli": [2]}}),
    ("rank", {"group": {"catalog": "free_2"},
              "chain": {"type": "core", "bounds": [2]}}),
)


def _run_cli(tmp_path, command, config):
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(config))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([command, "--config", str(path)]) == 0
    return out.getvalue()


# one span per function named in the benchmark notes, plus the root
EXPECTED_SPANS = {
    "workload", "experiments.resolve_chain", "experiments.emit_report",
    "chains.level_coset_table", "chains.Chain.validate",
    "homology.covering_complex", "homology.betti", "homology.rank",
    "gog.subgroup_volume_vector", "gog.subgroup_shadows",
    "gog.edge_shadow_indices", "permgrp.subgroup_index",
    "permgrp.PermGroup.order", "cosets.low_index_subgroups",
    "cosets.regular_action_table", "cosets.todd_coxeter", "towers.catalog",
    "selftest.run_check",
}


def test_small_configs_and_battery_produce_every_span_name(tmp_path):
    plain = [_run_cli(tmp_path, c, cfg) for c, cfg in SMALL]
    with tracing.Tracer() as tracer:
        traced = [tracer.call(tracing.ROOT, _run_cli, (tmp_path, c, cfg))
                  for c, cfg in SMALL]
        tracer.call(tracing.ROOT, selftest.run_all_checks, (lambda line: None,))
    assert traced == plain
    assert tracing.SPAN_NAMES == EXPECTED_SPANS
    assert {s.name for s in tracer.spans} == EXPECTED_SPANS
    assert all(s.end >= s.start for s in tracer.spans)


def test_uninstall_restores_every_original():
    before = {(m, a): _lookup(m, a) for m, a, _, _ in tracing.HOOKS}
    with tracing.Tracer():
        assert PermGroup.order is not before[("gradlab.permgrp",
                                              "PermGroup.order")]
    assert {k: _lookup(*k) for k in before} == before
    assert Chain.validate is before[("gradlab.chains", "Chain.validate")]


def _lookup(module, attr):
    import importlib
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_self_times_add_up_to_the_root():
    with tracing.Tracer() as tracer:
        tracer.call(tracing.ROOT, selftest.run_check,
                    ("x", lambda: (True, ""), 1.0))
    root = next(s for s in tracer.spans if s.name == tracing.ROOT)
    total = sum(tracing.self_seconds(tracer.spans).values())
    assert total == pytest.approx(root.seconds)


def test_selftest_metric_names_follow_the_battery():
    assert tracing.SELFTEST_CHECKS == tuple(n for n, _, _ in
                                            selftest.ALL_CHECKS)


def test_surface_2_constants_match_the_catalog():
    p = catalog()["surface_2"].presentation
    assert workload.SURFACE_2_GENERATORS == p.generator_names
    assert [workload.SURFACE_2_RELATOR] == [p.render(r) for r in p.relators]


def test_seed_zero_is_the_catalog_order_and_seeds_differ():
    assert workload.generator_order(0) == list(workload.SURFACE_2_GENERATORS)
    orders = {tuple(workload.generator_order(s)) for s in range(24)}
    assert len(orders) == 24


def test_gate_accepts_the_expected_reports_and_rejects_wrong_numbers():
    hom = workload.expected_report("homology-surface2")
    vol = workload.expected_report("volume-surface2")
    assert workload.check_homology(hom) == []
    assert workload.check_volume(vol) == []
    assert workload.check_homology(hom.replace(",2594,", ",2593,"))
    assert workload.check_homology(hom.replace("1,81,gf:2", "1,81,gf:3"))
    assert workload.check_volume(vol.replace("1/1296", "1/1295"))


def test_benchmark_json_names_what_run_py_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workload.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == \
        ["scaled_wall_s", "scaled_wall_s_tail", "peak_rss_mb", "setup_s"]
    layer = dict(tracing.LAYER_METRICS)
    units = {n: u for n, (u, _) in layer.items()}
    units.update(tracing.TRACE_METRICS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == units


def test_gauge_loop_is_fixed():
    # the scale of every end-to-end time rests on this loop never changing
    assert gauge.loop() == 108


def test_gauge_stops_when_its_stdin_closes():
    proc = subprocess.run([sys.executable, gauge.__file__], input="",
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0
    samples = json.loads(proc.stdout)
    assert samples and all(len(s) == 2 and s[1] > 0 for s in samples)
