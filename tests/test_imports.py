"""Four constraints on what the code may import, two on what it
defines, one on what it stores, one on how it reads permutations, one
on how it reads matrices, one on how it builds words, one on how it
moves points along words, one on who reads a chain level's quotient,
one on who reads a coset table's rows and one on how objects are built.

The runtime uses only the standard library, so every import in
src/gradlab is relative or names a standard-library module.  Importing
the command line front end loads none of dataclasses, inspect, ast and
dis, which would cost more start-up time than gradlab's own modules.  No
gradlab module imports a private name (one starting with "_") from
another, so a module's private helpers can change without reading its
neighbours.  The oracles import nothing from gradlab, so a bug in the
library cannot hide in the reference it is checked against.  Every
private top-level function or class is named somewhere in src/gradlab
besides its definition, so a helper whose last caller is deleted goes
with it.  Every public top-level function or class is named in some
module of src/gradlab outside its own definition and __init__.py, so the
package exports nothing that only its tests call.  Every attribute a
method stores on self is read, as an attribute of something, somewhere in
src/gradlab, so state that no reader reads goes with its last reader.  No
module maps a bound __getitem__ over points: a tuple of lookups is
permgrp.gather, the one itemgetter kernel.  No module but homology names
a Matrix's row_dicts: the others read a matrix through get, nnz and rank,
so its layout can change in one place.  No module calls parse_word on a
string literal or an f-string: a word the code builds itself is made from
runs, and only text from a config or a caller is parsed.  No module but
permgrp names gather_power: a word moves points through permgrp.carry,
for chain levels and coset tables alike.  No module but chains reads a
level's regular, orbits, orbit_of_0 or quotient attribute: every other
reader asks the level (ChainLevel.satisfies, ChainLevel.image,
ChainLevel.order_of), so how a level answers can change in one place.
No module but cosets reads a CosetTable's table, the rows it derives
afresh from its columns on every read: the others read num_cosets and
columns, so no hot path rebuilds the rows.  No module but permgrp calls
a class's __new__: every object goes through its constructor, except
the Perm that permgrp._trusted makes of images already known to be a
permutation.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def imported_modules(path):
    """(level, module) of every import statement in a file; level is 0
    for an absolute import."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [(0, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.level, node.module or ""))
    return found


def test_the_runtime_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "gradlab").glob("*.py"))
    assert len(sources) >= 10
    outside = [(path.name, module) for path in sources
               for level, module in imported_modules(path)
               if level == 0
               and module.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_the_cli_starts_without_code_generating_modules():
    probe = ("import sys, gradlab.cli; print(sorted({'dataclasses', "
             "'inspect', 'ast', 'dis'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_no_module_imports_a_private_name_from_another():
    sources = sorted((ROOT / "src" / "gradlab").glob("*.py"))
    private = [(path.name, node.module, alias.name) for path in sources
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []


def test_the_oracles_import_nothing_from_gradlab():
    modules = imported_modules(ROOT / "tests" / "oracles.py")
    assert modules
    assert all(level == 0 and module.split(".")[0] != "gradlab"
               for level, module in modules)


def test_every_private_helper_has_a_caller():
    trees = [ast.parse(path.read_text(), str(path))
             for path in sorted((ROOT / "src" / "gradlab").glob("*.py"))]
    helpers = [node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_")]
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert helpers
    assert [name for name in helpers if name not in named] == []


def test_every_public_name_has_a_caller():
    # every name used outside __init__.py, with the top-level definition
    # each use sits in, so a recursive call is not a caller
    defined, uses = [], set()
    for path in sorted((ROOT / "src" / "gradlab").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text(), str(path)).body:
            owner = getattr(top, "name", None)
            if (isinstance(top, (ast.FunctionDef, ast.ClassDef))
                    and not owner.startswith("_")):
                defined.append(owner)
            uses |= {(node.id if isinstance(node, ast.Name) else node.attr, owner)
                     for node in ast.walk(top)
                     if isinstance(node, (ast.Name, ast.Attribute))}
    called = {name for name, owner in uses if name != owner}
    assert defined
    assert [name for name in defined if name not in called] == []


def test_every_attribute_stored_on_self_is_read():
    trees = [ast.parse(path.read_text(), str(path))
             for path in sorted((ROOT / "src" / "gradlab").glob("*.py"))]
    attributes = [node for tree in trees for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)]
    stored = {node.attr for node in attributes
              if isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"}
    read = {node.attr for node in attributes if isinstance(node.ctx, ast.Load)}
    assert stored
    assert sorted(stored - read) == []


def test_every_gather_goes_through_permgrp():
    sources = sorted((ROOT / "src" / "gradlab").glob("*.py"))
    mapped = [(path.name, node.lineno) for path in sources
              for node in ast.walk(ast.parse(path.read_text(), str(path)))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "map" and node.args
              and isinstance(node.args[0], ast.Attribute)
              and node.args[0].attr == "__getitem__"]
    assert mapped == []


def test_only_homology_reads_the_rows_of_a_matrix():
    sources = sorted((ROOT / "src" / "gradlab").glob("*.py"))
    named = [(path.name, node.lineno) for path in sources
             if path.name != "homology.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if (isinstance(node, ast.Attribute) and node.attr == "row_dicts")
             or (isinstance(node, ast.Name) and node.id == "row_dicts")]
    assert named == []


def test_no_module_parses_a_word_it_wrote_itself():
    sources = sorted((ROOT / "src" / "gradlab").glob("*.py"))
    parsed = [(path.name, node.lineno) for path in sources
              for node in ast.walk(ast.parse(path.read_text(), str(path)))
              if isinstance(node, ast.Call) and node.args
              and (node.func.id if isinstance(node.func, ast.Name)
                   else getattr(node.func, "attr", None)) == "parse_word"
              and (isinstance(node.args[0], ast.JoinedStr)
                   or (isinstance(node.args[0], ast.Constant)
                       and isinstance(node.args[0].value, str)))]
    assert parsed == []


def test_only_permgrp_names_gather_power():
    sources = sorted((ROOT / "src" / "gradlab").glob("*.py"))
    named = [(path.name, node.lineno) for path in sources
             if path.name != "permgrp.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if (isinstance(node, ast.Name) and node.id == "gather_power")
             or (isinstance(node, ast.Attribute)
                 and node.attr == "gather_power")
             or (isinstance(node, ast.alias) and node.name == "gather_power")]
    assert named == []


def test_only_chains_reads_what_a_level_knows_of_its_quotient():
    sources = sorted((ROOT / "src" / "gradlab").glob("*.py"))
    read = [(path.name, node.lineno) for path in sources
            if path.name != "chains.py"
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Attribute)
            and node.attr in ("regular", "orbits", "orbit_of_0", "quotient")]
    assert read == []


def test_only_cosets_reads_the_rows_of_a_coset_table():
    sources = sorted((ROOT / "src" / "gradlab").glob("*.py"))
    read = [(path.name, node.lineno) for path in sources
            if path.name != "cosets.py"
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Attribute) and node.attr == "table"]
    assert read == []


def test_only_permgrp_calls_new():
    sources = sorted((ROOT / "src" / "gradlab").glob("*.py"))
    called = [(path.name, node.lineno) for path in sources
              if path.name != "permgrp.py"
              for node in ast.walk(ast.parse(path.read_text(), str(path)))
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "__new__"]
    assert called == []
