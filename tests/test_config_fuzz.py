"""Mutated configs never reach a traceback.

Valid skeletons, one per group kind and chain kind, are mutated at random
leaves: a value of the wrong JSON type, a missing or unknown key, a bool
where an int goes, zero or a negative number, an unknown name.  Each result
runs through cli.main for every report kind under a small coset budget,
and must end in an exit code of 0 (ran), 1 (bad input), 2 (budget) or 3
(cross-check) with no exception escaping.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from gradlab.cli import main
from gradlab.experiments import KINDS

HOMOLOGY = {"type": "homology", "moduli": [2, 4]}

SKELETONS = [
    {"group": {"catalog": "free_2"}, "chain": HOMOLOGY,
     "fields": ["q", "gf:2"]},
    {"group": {"presentation": {"generators": ["a", "b"],
                                "relators": ["a b a^-1 b^-1"],
                                "aspherical": True}},
     "chain": {"type": "core", "bounds": [2, 3]}},
    {"group": {"graph": {"vertices": [{"type": "free", "rank": 2},
                                      {"type": "surface", "genus": 2}],
                         "edges": [{"source": 0, "target": 1,
                                    "iota_word": "a b", "tau_word": "a1"}]}},
     "chain": {"type": "cyclic", "weights": {"a0": 1, "a11": 1},
               "moduli": [2, 4]},
     "volume_degree": 2},
    {"group": {"tower": {"base": [{"type": "free", "rank": 2}],
                         "stages": [{"type": "torus", "rank": 2,
                                     "word": "a0"},
                                    {"type": "surface", "genus": 2,
                                     "boundaries": ["b0"]}]}},
     "chain": {"type": "homology", "moduli": [2]}},
    {"group": {"product": {"factors": [{"catalog": "free_2"},
                                       {"catalog": "z_star_z"}]}},
     "chain": {"type": "product", "factors": [HOMOLOGY, HOMOLOGY]},
     "max_cosets": 300},
    {"group": {"graph": {"vertices": [{"type": "abelian", "rank": 2},
                                      {"type": "cyclic"}],
                         "edges": [{"source": 0, "target": 1,
                                    "edge_block": {"type": "trivial"}}]}},
     "chain": {"type": "core", "bounds": [2]}, "fields": ["gf:3"]},
    {"group": {"catalog": "double_f2_ab"},
     "chain": {"type": "fiber", "inner": HOMOLOGY,
               "subgroup_words": ["a0", "b0 a1"], "label": "left"}},
    {"group": {"catalog": "surface_2"},
     "chain": {"type": "fiber", "inner": {"type": "homology", "moduli": [2]},
               "kernel": {"weights": {"a1": 1}, "modulus": 2}}},
]

NAMES = ["nope", "free_2", "surface_2", "z_star_z", "core", "homology",
         "cyclic", "fiber", "product", "torus", "surface", "free", "abelian",
         "trivial", "q", "gf:2", "gf:4", "a", "a0", "b1", "type"]
WORDS = ["a", "b", "a0", "a^5", "a^-5 b^2", "a b a^-1 b^-1", "b0 a1^-3", "",
         "a^", "c", "a1 b1 a1^-1 b1^-1"]

junk = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 8),
              st.sampled_from([0.5, -1.0, 2.0]), st.sampled_from(NAMES + WORDS)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(NAMES), inner,
                                            max_size=2)),
    max_leaves=4)


def _paths(node, path=()):
    """The path of every node in a JSON tree, the root first."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _tweak(data, value):
    """Another value of the same JSON type: a bool flipped, a small or
    non-positive int, another name or word, a list one entry longer or
    shorter."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return data.draw(st.integers(-3, 8))
    if isinstance(value, str):
        return data.draw(st.sampled_from(NAMES + WORDS))
    if isinstance(value, list):
        return value[1:] if data.draw(st.booleans()) else value + value[:1]
    return data.draw(junk)


def _mutate(data, config):
    """One mutation at a random node: mostly a scalar tweaked within its
    type, else a node of another type, a key or entry deleted, or an
    unknown key or entry added."""
    nodes = []
    for path in list(_paths(config))[1:]:
        parent = config
        for step in path[:-1]:
            parent = parent[step]
        nodes.append((parent, path[-1]))
    if not nodes:
        return
    action = data.draw(st.sampled_from(["tweak"] * 3
                                       + ["retype", "delete", "add"]))
    if action == "tweak":
        nodes = [(parent, key) for parent, key in nodes
                 if not isinstance(parent[key], (dict, list))] or nodes
    parent, key = data.draw(st.sampled_from(nodes))
    if action == "tweak":
        parent[key] = _tweak(data, parent[key])
    elif action == "retype":
        parent[key] = data.draw(junk)
    elif action == "delete":
        del parent[key]
    elif isinstance(parent[key], dict):
        parent[key][data.draw(st.sampled_from(NAMES))] = data.draw(junk)
    else:
        parent[key] = [parent[key], data.draw(junk)]


def _run(config, kinds, budget):
    """cli.main's exit code for each kind on the config."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        codes = []
        for kind in kinds:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(main([kind, "--config", path,
                                   "--max-cosets", budget]))
        return codes


def test_every_skeleton_runs():
    assert [_run(c, ["rank"], "500") for c in SKELETONS] == [[0]] * 8


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(SKELETONS), st.integers(1, 3), st.data())
def test_mutated_configs_exit_cleanly(skeleton, mutations, data):
    config = copy.deepcopy(skeleton)
    for _ in range(mutations):
        _mutate(data, config)
    budget = str(data.draw(st.sampled_from([1, 64, 500])))
    codes = _run(config, sorted(KINDS), budget)
    assert set(codes) <= {0, 1, 2, 3}, (config, codes)
