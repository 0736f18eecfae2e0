"""Gradient experiments over chains of finite-index subgroups.

An experiment pairs a group (catalog entry, presentation, graph of groups,
tower, or product) with a chain recipe, then walks the chain computing
homology of the covers, volume vectors, and the sandwich bounds for rank and
deficiency.  Results land in a flat table with a fixed column set so runs
can be diffed across tools and re-parsed for regression checks.
"""

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .chains import (core_chain, cyclic_cover_chain, fiber_restrict,
                     homology_cover_chain, kernel_generator_words,
                     level_coset_table, product_chain)
from .cosets import DEFAULT_MAX_COSETS, STRATEGY_VERSION
from .errors import InvariantViolation
from .gog import (block_from_dict, edge_shadow_indices, euler_characteristic,
                  fundamental_presentation, graph_from_dict, subgroup_shadows,
                  subgroup_volume_vector)
from .homology import QQ, FieldSpec, betti, covering_complex, kunneth_product_dims
from .towers import SurfaceAttach, TorusAttach, TowerSpec, build_tower, catalog
from .words import (presentation_euler_characteristic, presentation_from_texts,
                    product_presentation)

CSV_COLUMNS = ("level", "index", "field", "b0", "b1", "b2",
               "d_lower", "d_upper", "def_lower", "def_upper",
               "vol2_ratio", "target_rg", "target_dg")
MV_COLUMNS = ("level", "index", "field", "j", "lhs", "rhs", "slack")

_FRACTION_COLUMNS = frozenset({"vol2_ratio", "target_rg", "target_dg"})
_TEXT_COLUMNS = frozenset({"field"})


@dataclass(frozen=True)
class ResolvedGroup:
    name: str
    presentation: object
    euler: int
    graph: object = None
    factors: tuple = ()


def _need(spec, key, where, kind, item=None):
    """spec[key], which must be a kind (holding only items, if given)."""
    if not isinstance(spec, dict) or key not in spec:
        raise ValueError(f"{where} needs {key!r}")
    value = spec[key]
    if not isinstance(value, kind) or (
            item is not None and not all(isinstance(v, item) for v in value)):
        raise ValueError(f"{where}: bad {key!r} value {value!r}")
    return value


def _tower_spec_from_dict(d):
    base = tuple(block_from_dict(b) for b in d.get("base", ()))
    if not base:
        raise ValueError("tower needs at least one base block")
    stages = []
    for s in d.get("stages", ()):
        kind = s.get("type")
        if kind == "torus":
            stages.append(TorusAttach(int(s["rank"]), s["word"]))
        elif kind == "surface":
            stages.append(SurfaceAttach(int(s["genus"]),
                                        tuple(s["boundaries"]),
                                        bool(s.get("asserted_retraction", True))))
        else:
            raise ValueError(f"unknown tower stage type {kind!r}")
    return TowerSpec(base, tuple(stages))


def resolve_group(spec):
    """Turn a group spec dict into a presentation plus whatever structure
    (graph of groups, product factors) the spec provides."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValueError(f"group spec must be a dict with one key, got {spec!r}")
    (kind, body), = spec.items()
    if kind == "catalog":
        entries = catalog()
        if not isinstance(body, str) or body not in entries:
            raise ValueError(f"unknown catalog group {body!r}; "
                             f"have {sorted(entries)}")
        e = entries[body]
        factors = ()
        if e.factors:
            factors = tuple(resolve_group({"catalog": f}) for f in e.factors)
        return ResolvedGroup(body, e.presentation, e.euler, e.graph, factors)
    if kind == "presentation":
        generators = _need(body, "generators", "presentation", list, str)
        p = presentation_from_texts(tuple(generators),
                                    tuple(body.get("relators", ())),
                                    bool(body.get("aspherical", False)))
        return ResolvedGroup("presentation", p,
                             presentation_euler_characteristic(p))
    if kind == "graph":
        g = graph_from_dict(body)
        return ResolvedGroup("graph", fundamental_presentation(g),
                             euler_characteristic(g), g)
    if kind == "tower":
        result = build_tower(_tower_spec_from_dict(body))
        return ResolvedGroup("tower", result.presentation, result.euler,
                             result.graph)
    if kind == "product":
        factors = tuple(resolve_group(s)
                        for s in _need(body, "factors", "product", list))
        if len(factors) < 2:
            raise ValueError("product needs at least two factors")
        p = product_presentation([f.presentation for f in factors])
        chi = 1
        for f in factors:
            chi *= f.euler
        name = " x ".join(f.name for f in factors)
        return ResolvedGroup(name, p, chi, None, factors)
    raise ValueError(f"unknown group spec kind {kind!r}")


def resolve_chain(spec, group, max_cosets=DEFAULT_MAX_COSETS):
    """Build the chain a spec dict describes over the resolved group."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError(f"chain spec must be a dict with a type, got {spec!r}")
    kind = spec["type"]
    p = group.presentation
    where = f"{kind} chain"
    if kind == "core":
        return core_chain(p, _need(spec, "bounds", where, list, int))
    if kind == "homology":
        return homology_cover_chain(p, _need(spec, "moduli", where, list, int))
    if kind == "cyclic":
        return cyclic_cover_chain(p, _need(spec, "weights", where, dict),
                                  _need(spec, "moduli", where, list, int))
    if kind == "product":
        specs = _need(spec, "factors", where, list)
        if not group.factors:
            raise ValueError("product chain needs a product group")
        if len(specs) != len(group.factors):
            raise ValueError(f"{len(specs)} chain factors for "
                             f"{len(group.factors)} group factors")
        parts = [resolve_chain(s, g, max_cosets)
                 for s, g in zip(specs, group.factors)]
        return product_chain(parts, presentation=p)
    if kind == "fiber":
        inner = resolve_chain(_need(spec, "inner", where, dict), group,
                              max_cosets)
        if "subgroup_words" in spec:
            words = tuple(p.word(w) for w in spec["subgroup_words"])
        elif "kernel" in spec:
            k = spec["kernel"]
            helper = cyclic_cover_chain(p, dict(k["weights"]),
                                        [int(k["modulus"])])
            words = tuple(kernel_generator_words(p, helper.levels[0].images,
                                                 max_order=max_cosets))
        else:
            raise ValueError("fiber chain needs subgroup_words or kernel")
        return fiber_restrict(inner, words, label=spec.get("label", "subgroup"))
    raise ValueError(f"unknown chain type {kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    group_spec: dict
    chain_spec: dict
    fields: tuple = (QQ,)
    max_cosets: int = DEFAULT_MAX_COSETS
    volume_degree: int = 2
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d):
        known = {"group", "chain", "fields", "max_cosets", "volume_degree"}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        if "group" not in d or "chain" not in d:
            raise ValueError("config needs both a group and a chain")
        labels = _need(d, "fields", "config", list, str) if "fields" in d else ["q"]
        return cls(group_spec=d["group"], chain_spec=d["chain"],
                   fields=tuple(FieldSpec.parse(s) for s in labels),
                   max_cosets=int(d.get("max_cosets", DEFAULT_MAX_COSETS)),
                   volume_degree=int(d.get("volume_degree", 2)),
                   raw=dict(d))


@dataclass
class GradientTable:
    kind: str
    group_name: str
    columns: tuple
    rows: list
    config: dict
    chain_indices: tuple = ()
    provenances: tuple = ()
    notes: tuple = ()
    extras: list = None


@dataclass(frozen=True)
class _Plan:
    """How one report kind reads the levels of a chain.

    fields are the coefficient fields whose betti numbers the rows read;
    None means the kind reads no homology, and the walk then builds no coset
    table or covering complex.  fill(n, level, cx, numbers) yields the
    (row, extra) pairs of level n, numbers mapping each field to its betti
    numbers.  notes are added after the chain's own notes.
    """

    columns: tuple
    fields: object
    fill: object
    notes: tuple = ()


def _require_presentation(chain, what):
    if chain.group is None:
        raise ValueError(f"{what} needs relators; shadow chains only track "
                         "indices")


def _row(columns, **values):
    row = dict.fromkeys(columns)
    row.update(values)
    return row


def _betti_row(n, level, f, b):
    return _row(CSV_COLUMNS, level=n, index=level.index, field=f.label,
                b0=b[0], b1=b[1], b2=b[2] if len(b) > 2 else 0)


def _plan_rank(cfg, group, chain):
    """Sandwich the rank of each level kernel: first betti number below,
    volume count above.  target_rg is the expected limit of d/index."""
    if chain.group is None:
        def shadow(n, level, cx, numbers):
            yield (_row(CSV_COLUMNS, level=n, index=level.index),
                   {"provenance": level.provenance})
        return _Plan(CSV_COLUMNS, None, shadow,
                     ("shadow chain: only the index column is populated",))
    target = Fraction(-group.euler)

    def fill(n, level, cx, numbers):
        b = numbers[QQ]
        row = _betti_row(n, level, QQ, b)
        row["d_lower"] = b[1]
        extra = {"provenance": level.provenance}
        if group.graph is not None:
            vv = subgroup_volume_vector(group.graph, level.quotient,
                                        level.images)
            row["d_upper"] = vv[1] - vv[0] + 1
            extra["volume_vector"] = list(vv.entries)
        else:
            row["d_upper"] = level.index * (chain.group.num_generators - 1) + 1
        if row["d_lower"] > row["d_upper"]:
            raise InvariantViolation(f"level {n}: rank bounds crossed, "
                                     f"{row['d_lower']} > {row['d_upper']}")
        row["target_rg"] = target
        yield row, extra
    return _Plan(CSV_COLUMNS, (QQ,), fill)


def _plan_deficiency(cfg, group, chain):
    """Bound the (negated) deficiency of each kernel.

    def_upper = r2 - r1 + r0 - 1 counts cells of the cover; def_lower =
    b2 - b1 over the rationals, valid when the presentation complex is
    aspherical so the cover's second homology is the group's.  Both bounds
    divided by the index approach the Euler characteristic.
    """
    _require_presentation(chain, "deficiency bounds")
    aspherical = chain.group.aspherical
    notes = ()
    if not aspherical:
        notes = ("def_lower omitted: without an aspherical presentation "
                 "complex, b2 of the cover only bounds the group's b2 "
                 "from above",)
    target = Fraction(group.euler)

    def fill(n, level, cx, numbers):
        row = _betti_row(n, level, QQ, numbers[QQ])
        extra = {"provenance": level.provenance}
        if group.graph is not None:
            vv = subgroup_volume_vector(group.graph, level.quotient,
                                        level.images)
            row["def_upper"] = vv[2] - vv[1] + vv[0] - 1
            extra["volume_vector"] = list(vv.entries)
        else:
            r0, r1, r2 = cx.dims
            row["def_upper"] = r2 - r1 + r0 - 1
        if aspherical:
            row["def_lower"] = row["b2"] - row["b1"]
            if row["def_lower"] > row["def_upper"]:
                raise InvariantViolation(f"level {n}: deficiency bounds "
                                         f"crossed, {row['def_lower']} > "
                                         f"{row['def_upper']}")
        row["target_dg"] = target
        yield row, extra
    return _Plan(CSV_COLUMNS, (QQ,), fill, notes)


def _plan_volume(cfg, group, chain):
    """Track r_k(B)/[G:B] down the chain of a graph-of-groups kernel, with
    k = cfg.volume_degree.

    When no vertex block carries k-cells the same ratio is recomputed as a
    sum of reciprocal edge shadows, and the two routes must agree exactly.
    """
    _require_presentation(chain, "volume vectors")
    if group.graph is None:
        raise ValueError("volume gradients need a graph of groups")
    k = cfg.volume_degree
    if k < 1:
        raise ValueError(f"volume degree must be at least 1, got {k}")
    graph = group.graph
    vertex_cells = max(len(b.volume_vector().entries) for b in graph.vertices)
    check_edges = vertex_cells <= k and k >= 2

    def fill(n, level, cx, numbers):
        vv = subgroup_volume_vector(graph, level.quotient, level.images)
        ratio = Fraction(vv[k], level.index)
        row = _row(CSV_COLUMNS, level=n, index=level.index, vol2_ratio=ratio)
        extra = {"provenance": level.provenance,
                 "volume_vector": list(vv.entries), "volume_degree": k}
        if check_edges:
            shadows = edge_shadow_indices(graph, level.quotient, level.images)
            expected = Fraction(0)
            for e, s in zip(graph.edges, shadows):
                weight = e.block.sub_volume_vector(s)[k - 1]
                expected += Fraction(weight, s)
            if expected != ratio:
                raise InvariantViolation(
                    f"level {n}: volume ratio {ratio} != edge shadow sum "
                    f"{expected}")
            extra["edge_shadows"] = shadows
        yield row, extra
    notes = (f"vol2_ratio column holds the degree-{k} ratio",) if k != 2 else ()
    return _Plan(CSV_COLUMNS, None, fill, notes)


def _plan_homology(cfg, group, chain):
    """Betti numbers of every level cover over every requested field.

    For products of free groups built with a product chain, the answer is
    recomputed from the factor kernel ranks and must match in degrees 0..2.
    """
    _require_presentation(chain, "homology")
    ranks = None
    if chain.factors and not any(f.presentation.relators
                                 for f in group.factors):
        ranks = [f.presentation.num_generators for f in group.factors]

    def fill(n, level, cx, numbers):
        if ranks is not None:
            dims = [c.levels[n - 1].index * (r - 1) + 1
                    for c, r in zip(chain.factors, ranks)]
            want = [kunneth_product_dims(dims, q) for q in range(len(dims) + 1)]
        for f in cfg.fields:
            b = numbers[f]
            extra = {"provenance": level.provenance, "betti": list(b)}
            if ranks is not None:
                for q in range(min(3, len(want))):
                    got = b[q] if q < len(b) else 0
                    if got != want[q]:
                        raise InvariantViolation(
                            f"level {n} field {f.label}: b{q} = {got} but "
                            f"the factor ranks {dims} predict {want[q]}")
                extra["factor_ranks"] = dims
                extra["predicted_betti"] = want
            yield _betti_row(n, level, f, b), extra
    return _Plan(CSV_COLUMNS, cfg.fields, fill)


def _plan_mvcheck(cfg, group, chain):
    """Verify the gluing inequality for b1 and b2 of every level cover:

        b_j(B) <= sum_v copies * b_j(B n G_v) + sum_e copies * b_j(B n G_e)
                  + 2 sum_e copies * b_{j-1}(B n G_e)

    with unreduced b_0.  Local terms come from the closed-form subgroup
    betti numbers of the blocks; a negative slack fails the run.
    """
    _require_presentation(chain, "the gluing check")
    if group.graph is None:
        raise ValueError("the gluing check needs a graph of groups")
    graph = group.graph

    def fill(n, level, cx, numbers):
        vertex_rows, edge_rows = subgroup_shadows(graph, level.quotient,
                                                  level.images)
        for f in cfg.fields:
            b = numbers[f]
            for j in (1, 2):
                lhs = b[j] if j < len(b) else 0
                rhs = sum(copies * block.sub_betti(local, j)
                          for block, copies, local in vertex_rows)
                rhs += sum(copies * block.sub_betti(local, j)
                           for block, copies, local in edge_rows)
                rhs += 2 * sum(copies * block.sub_betti(local, j - 1)
                               for block, copies, local in edge_rows)
                if lhs > rhs:
                    raise InvariantViolation(
                        f"level {n} field {f.label}: b{j} = {lhs} exceeds "
                        f"the gluing bound {rhs}")
                yield (_row(MV_COLUMNS, level=n, index=level.index,
                            field=f.label, j=j, lhs=lhs, rhs=rhs,
                            slack=rhs - lhs),
                       {"provenance": level.provenance})
    return _Plan(MV_COLUMNS, cfg.fields, fill)


KINDS = {
    "rank": _plan_rank,
    "deficiency": _plan_deficiency,
    "volume": _plan_volume,
    "homology": _plan_homology,
    "mvcheck": _plan_mvcheck,
}


def run_experiment(kind, cfg):
    """Resolve the config, then walk its chain one level at a time: build
    the level's cover and betti numbers if the kind reads them, and let the
    kind fill its rows."""
    if kind not in KINDS:
        raise ValueError(f"unknown experiment {kind!r}; have {sorted(KINDS)}")
    group = resolve_group(cfg.group_spec)
    chain = resolve_chain(cfg.chain_spec, group, cfg.max_cosets)
    plan = KINDS[kind](cfg, group, chain)
    rows, extras = [], []
    for n, level in enumerate(chain.levels, start=1):
        cx = numbers = None
        if plan.fields is not None:
            cx = covering_complex(level_coset_table(chain.group, level,
                                                    cfg.max_cosets))
            numbers = {f: betti(cx, f) for f in plan.fields}
        for row, extra in plan.fill(n, level, cx, numbers):
            rows.append(row)
            extras.append(extra)
    return GradientTable(kind, group.name, plan.columns, rows, cfg.raw,
                         chain.indices(),
                         tuple(l.provenance for l in chain.levels),
                         chain.notes + plan.notes, extras)


def _cell(value):
    if value is None:
        return ""
    return str(value)


def emit_report(table, fmt="csv"):
    """Serialize a table: csv for the flat rows, json for rows plus the
    config echo, chain provenance, and per-row extras."""
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_cell(row[c]) for c in table.columns])
        return out.getvalue()
    if fmt == "json":
        from . import __version__
        doc = {
            "tool": "gradlab",
            "version": __version__,
            "strategy": STRATEGY_VERSION,
            "kind": table.kind,
            "group": table.group_name,
            "columns": list(table.columns),
            "rows": [{c: (str(v) if isinstance(v, Fraction) else v)
                      for c, v in row.items()} for row in table.rows],
            "chain": {"indices": list(table.chain_indices),
                      "provenances": list(table.provenances)},
            "notes": list(table.notes),
            "config": table.config,
        }
        if table.extras is not None:
            doc["extras"] = table.extras
        return json.dumps(doc, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _typed(column, value):
    if value is None or value == "":
        return None
    if column in _TEXT_COLUMNS:
        return value
    if column in _FRACTION_COLUMNS:
        return Fraction(str(value))
    return int(value)


def parse_report(text):
    """Read back an emitted report.  JSON keeps everything; CSV recovers the
    typed rows with blank cells as None."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(text)
        columns = tuple(doc["columns"])
        rows = [{c: _typed(c, row.get(c)) for c in columns}
                for row in doc["rows"]]
        chain = doc.get("chain", {})
        return GradientTable(doc["kind"], doc["group"], columns, rows,
                             doc.get("config", {}),
                             tuple(chain.get("indices", ())),
                             tuple(chain.get("provenances", ())),
                             tuple(doc.get("notes", ())),
                             doc.get("extras"))
    reader = csv.DictReader(io.StringIO(text))
    columns = tuple(reader.fieldnames or ())
    if not columns:
        raise ValueError("empty report")
    rows = [{c: _typed(c, row[c]) for c in columns} for row in reader]
    return GradientTable("", "", columns, rows, {})
