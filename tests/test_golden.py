"""Byte-for-byte reports of a fixed set of configs.

Each case in golden/cases.json runs through the command line once per
format.  The CSV report, the JSON report, and the exit code followed by
stderr must equal the stored files <name>.csv, <name>.json and <name>.exit,
and the directory must hold nothing else.

    PYTHONPATH=src python tests/test_golden.py [NAME...]

rewrites the stored files of the named cases (of every case, given no name)
from the current code; run it only when a change to the reports is intended,
and name the new case when adding one, so the others cannot change unseen.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from gradlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
FORMATS = ("csv", "json")


def run_case(case, fmt, workdir):
    """(stdout, exit code and stderr) of one case in one format."""
    config = Path(workdir) / "config.json"
    config.write_text(json.dumps(case["config"]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([case["kind"], "--config", str(config), "--format", fmt])
    return out.getvalue(), f"{code}\n{err.getvalue()}"


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_report(case, tmp_path):
    for fmt in FORMATS:
        report, status = run_case(case, fmt, tmp_path)
        assert report == (GOLDEN / f"{case['name']}.{fmt}").read_text()
        assert status == (GOLDEN / f"{case['name']}.exit").read_text()


def test_golden_directory_holds_exactly_the_case_files():
    expected = {"cases.json"} | {f"{case['name']}.{ext}" for case in CASES
                                 for ext in FORMATS + ("exit",)}
    assert {path.name for path in GOLDEN.iterdir()} == expected


if __name__ == "__main__":
    names = sys.argv[1:]
    unknown = set(names) - {case["name"] for case in CASES}
    if unknown:
        sys.exit(f"no golden case named {', '.join(sorted(unknown))}")
    with tempfile.TemporaryDirectory() as workdir:
        for case in CASES:
            if names and case["name"] not in names:
                continue
            for fmt in FORMATS:
                report, status = run_case(case, fmt, workdir)
                (GOLDEN / f"{case['name']}.{fmt}").write_text(report)
            (GOLDEN / f"{case['name']}.exit").write_text(status)
