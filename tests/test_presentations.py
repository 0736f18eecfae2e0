"""The presentation of every catalog group, and of every graph and tower
group that golden/cases.json names, pinned in presentations.json: its
generator names, its relators as Presentation.render writes them, its
aspherical flag and its Euler characteristic.  The golden reports show what
a chain reads off a presentation; these pins show the presentation itself.
"""

import json
from pathlib import Path

import pytest

from gradlab.experiments import resolve_group
from gradlab.towers import catalog

HERE = Path(__file__).parent
PINNED = json.loads((HERE / "presentations.json").read_text())
CASES = {case["name"]: case["config"]["group"]
         for case in json.loads((HERE / "golden" / "cases.json").read_text())}


def _group(name):
    return catalog()[name] if name in catalog() else resolve_group(CASES[name])


@pytest.mark.parametrize("name", PINNED)
def test_presentation_is_pinned(name):
    group = _group(name)
    p = group.presentation
    assert {"generators": list(p.generator_names),
            "relators": [p.render(r) for r in p.relators],
            "aspherical": p.aspherical,
            "euler": group.euler} == PINNED[name]
    if group.graph is not None:
        # the graph's own presentation has the same relators; only the
        # names differ, a one-block record's carrying no vertex suffix
        q = group.graph.presentation
        assert q.relators == p.relators
        assert q.num_generators == p.num_generators


def test_every_catalog_group_and_built_case_is_pinned():
    built = {name for name, spec in CASES.items()
             if any(kind in json.dumps(spec) for kind in ('"graph"', '"tower"'))}
    assert set(PINNED) == set(catalog()) | built
