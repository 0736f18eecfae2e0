"""Gradient experiments over chains of finite-index subgroups.

An experiment pairs a group (catalog entry, presentation, graph of groups,
tower, or product), resolved into one towers.Group record, with a chain
recipe, then walks the chain computing homology of the covers, volume
vectors, and the sandwich bounds for rank and deficiency.  Results land in
a flat table with a fixed column set so runs can be diffed across tools.
"""

import csv
import io
import json
from fractions import Fraction

from .chains import (core_chain, cyclic_cover_chain, fiber_restrict,
                     homology_cover_chain, level_coset_table, product_chain)
from .cosets import DEFAULT_MAX_COSETS, STRATEGY_VERSION, schreier_generators
from .errors import InvariantViolation, need, reject_unknown
from .gog import (VolumeVector, edge_shadow_indices, graph_from_dict,
                  subgroup_shadows, subgroup_volume_vector)
from .homology import (QQ, FieldSpec, betti, covering_complex, diagonalize,
                       kunneth_product_dims)
from .towers import Group, build_tower, catalog, graph_group, product_group
from .words import (abelianized_relator_matrix,
                    presentation_euler_characteristic, presentation_from_texts)

CSV_COLUMNS = ("level", "index", "field", "b0", "b1", "b2",
               "d_lower", "d_upper", "def_lower", "def_upper",
               "vol2_ratio", "target_rg", "target_dg")
MV_COLUMNS = ("level", "index", "field", "j", "lhs", "rhs", "slack")


def resolve_group(spec):
    """The Group record a spec dict describes.  A catalog spec returns the
    catalog's own record; a product's factors are their specs' records."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValueError(f"group spec must be a dict with one key, got {spec!r}")
    (kind, body), = spec.items()
    if kind == "catalog":
        entries = catalog()
        if not isinstance(body, str) or body not in entries:
            raise ValueError(f"unknown catalog group {body!r}; "
                             f"have {sorted(entries)}")
        return entries[body]
    if kind == "presentation":
        reject_unknown(body, "presentation",
                       ("generators", "relators", "aspherical"))
        generators = need(body, "generators", "presentation", list, str)
        relators = (need(body, "relators", "presentation", list, str)
                    if "relators" in body else ())
        aspherical = ("aspherical" in body
                      and need(body, "aspherical", "presentation", bool))
        p = presentation_from_texts(tuple(generators), tuple(relators),
                                    aspherical)
        return Group("presentation", p, presentation_euler_characteristic(p))
    if kind == "graph":
        return graph_group("graph", graph_from_dict(body))
    if kind == "tower":
        return build_tower(body)
    if kind == "product":
        reject_unknown(body, "product", ("factors",))
        factors = [resolve_group(s)
                   for s in need(body, "factors", "product", list)]
        return product_group(" x ".join(f.name for f in factors), factors)
    raise ValueError(f"unknown group spec kind {kind!r}")


def resolve_chain(spec, group, max_cosets=DEFAULT_MAX_COSETS):
    """Build the chain a spec dict describes over the resolved group.
    max_cosets also bounds a core chain's search, the index of a homology
    chain's levels and the modulus of a cyclic chain or fiber kernel."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError(f"chain spec must be a dict with a type, got {spec!r}")
    kind = spec["type"]
    p = group.presentation
    if not p.num_generators:
        raise ValueError(f"group {group.name!r} has no generators, so no "
                         "chain of finite-index subgroups descends in it")
    where = f"{kind} chain"
    if kind == "core":
        reject_unknown(spec, where, ("type", "bounds"))
        return core_chain(p, need(spec, "bounds", where, list, int), max_cosets)
    if kind == "homology":
        reject_unknown(spec, where, ("type", "moduli"))
        return homology_cover_chain(p, need(spec, "moduli", where, list, int),
                                    max_cosets)
    if kind == "cyclic":
        reject_unknown(spec, where, ("type", "weights", "moduli"))
        return cyclic_cover_chain(p, need(spec, "weights", where, dict, int),
                                  need(spec, "moduli", where, list, int),
                                  max_cosets)
    if kind == "product":
        reject_unknown(spec, where, ("type", "factors"))
        specs = need(spec, "factors", where, list)
        if not group.factors:
            raise ValueError("product chain needs a product group")
        if len(specs) != len(group.factors):
            raise ValueError(f"{len(specs)} chain factors for "
                             f"{len(group.factors)} group factors")
        parts = [resolve_chain(s, g, max_cosets)
                 for s, g in zip(specs, group.factors)]
        if any(c.group is None for c in parts):
            raise ValueError("product chain 'factors' must each carry a "
                             "presentation, and a fiber chain has none")
        return product_chain(parts, presentation=p)
    if kind == "fiber":
        reject_unknown(spec, where,
                       ("type", "inner", "subgroup_words", "kernel", "label"))
        if "subgroup_words" in spec and "kernel" in spec:
            raise ValueError("fiber chain takes subgroup_words or kernel, "
                             "not both")
        inner = resolve_chain(need(spec, "inner", where, dict), group,
                              max_cosets)
        if "subgroup_words" in spec:
            words = tuple(p.word(w) for w in
                          need(spec, "subgroup_words", where, list, str))
        elif "kernel" in spec:
            k = spec["kernel"]
            reject_unknown(k, "fiber kernel", ("weights", "modulus"))
            helper = cyclic_cover_chain(
                p, need(k, "weights", "fiber kernel", dict, int),
                [need(k, "modulus", "fiber kernel", int)], max_cosets)
            words = tuple(schreier_generators(
                level_coset_table(p, helper.levels[0], max_cosets)))
        else:
            raise ValueError("fiber chain needs subgroup_words or kernel")
        label = need(spec, "label", where, str) if "label" in spec else "subgroup"
        return fiber_restrict(inner, words, label=label)
    raise ValueError(f"unknown chain type {kind!r}")


class ExperimentConfig:
    __slots__ = ("group_spec", "chain_spec", "fields", "max_cosets",
                 "volume_degree", "raw")

    def __init__(self, group_spec, chain_spec, fields=(QQ,),
                 max_cosets=DEFAULT_MAX_COSETS, volume_degree=2, raw=None):
        self.group_spec = group_spec
        self.chain_spec = chain_spec
        self.fields = fields
        self.max_cosets = max_cosets
        self.volume_degree = volume_degree
        self.raw = {} if raw is None else raw

    @classmethod
    def from_dict(cls, d):
        reject_unknown(d, "config", ("group", "chain", "fields", "max_cosets",
                                     "volume_degree"))
        if "group" not in d or "chain" not in d:
            raise ValueError("config needs both a group and a chain")
        labels = need(d, "fields", "config", list, str) if "fields" in d else ["q"]
        if not labels:
            raise ValueError("config: 'fields' is empty")
        if len(set(labels)) != len(labels):
            raise ValueError(f"config: repeated field in 'fields' {labels!r}")
        numbers = {key: need(d, key, "config", int)
                   for key in ("max_cosets", "volume_degree") if key in d}
        for key, value in numbers.items():
            if value < 1:
                raise ValueError(f"config: bad {key!r} value {value!r}")
        return cls(group_spec=d["group"], chain_spec=d["chain"],
                   fields=tuple(FieldSpec.parse(s) for s in labels),
                   raw=dict(d), **numbers)


class GradientTable:
    __slots__ = ("kind", "group_name", "columns", "rows", "config",
                 "chain_indices", "provenances", "notes", "extras")

    def __init__(self, kind, group_name, columns, rows, config,
                 chain_indices=(), provenances=(), notes=(), extras=None):
        self.kind = kind
        self.group_name = group_name
        self.columns = columns
        self.rows = rows
        self.config = config
        self.chain_indices = chain_indices
        self.provenances = provenances
        self.notes = notes
        self.extras = extras


class _Plan:
    """How one report kind reads the levels of a chain.

    fields are the coefficient fields whose betti numbers the rows read;
    None means the kind reads no homology, and the walk then builds no coset
    table or covering complex.  fill(n, level, numbers) yields the
    (row, extra) pairs of level n, numbers mapping each field to its betti
    numbers; a fill that needs the level's cells reads _level_cells.  notes
    are added after the chain's own notes.
    """

    __slots__ = ("columns", "fields", "fill", "notes")

    def __init__(self, columns, fields, fill, notes=()):
        self.columns = columns
        self.fields = fields
        self.fill = fill
        self.notes = notes


def _b2_notes(chain):
    """The note a report that prints b2 carries when the presentation is not
    known to be aspherical: b2 is then the cover's 2-complex's, which only
    bounds the level's own b2 from above (Hopf)."""
    if chain.group.aspherical:
        return ()
    return ("b2 is the second betti number of the cover of the presentation "
            "2-complex, which is not known to be aspherical; it bounds the "
            "level's own b2 from above",)


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


def _level_cells(group, level, extra):
    """The cells (c0, c1, c2, ...) of the level that the rank, deficiency and
    volume plans and the Kunneth check read.  With a graph of groups: the covering formula's
    volume vector, a K(G_n, 1), recorded in extra["volume_vector"].
    Without: the cells covering_complex keeps after the tree collapse, a
    K(G_n, 1) only for an aspherical presentation, so not recorded."""
    if group.graph is not None:
        cells = subgroup_volume_vector(group.graph, level)
        extra["volume_vector"] = list(cells.entries)
        return cells
    p = group.presentation
    return VolumeVector((1, level.index * (p.num_generators - 1) + 1,
                         level.index * len(p.relators)))


def _infinite_abelianization(p):
    """Whether the abelianization of p is infinite: the relator rows have
    rank below the number of generators."""
    rows = abelianized_relator_matrix(p)
    return len(diagonalize(rows, p.num_generators)[0]) < p.num_generators


def _plan_rank(cfg, group, chain):
    """Sandwich the rank of each level kernel, one row per field K: b1 over
    K below, since d(G_n) >= dim H_1(G_n; K), and c1 - c0 + 1 of its cells
    above; target_rg is the limit of d/index.

    That limit is -chi, except on a product: a direct product of two
    infinite finitely generated groups has rank gradient 0 (Abert,
    Jaikin-Zapirain and Nikolov), and a factor counts as infinite when its
    abelianization is.  With fewer than two such factors, or with chi > 0
    (a rank gradient is never negative), target_rg is left blank.
    """
    if chain.group is None:
        def shadow(n, level, numbers):
            yield (_row(CSV_COLUMNS, level=n, index=level.index),
                   {"provenance": level.provenance})
        return _Plan(CSV_COLUMNS, None, shadow,
                     ("shadow chain: only the index column is populated",))
    target, notes = Fraction(-group.euler), _b2_notes(chain)
    if group.factors:
        infinite = sum(map(_infinite_abelianization,
                           (f.presentation for f in group.factors)))
        if infinite >= 2:
            target = Fraction(0)
        else:
            target = None
            notes += ("target_rg omitted: fewer than two factors of the "
                      "product have an infinite abelianization, so the "
                      "product is not known to have rank gradient 0",)
    elif target < 0:
        target = None
        notes += (f"target_rg omitted: -chi = {-group.euler} is negative, "
                  "and a rank gradient never is",)

    def fill(n, level, numbers):
        extra = {"provenance": level.provenance}
        c = _level_cells(group, level, extra)
        for f in cfg.fields:
            b = numbers[f]
            row = _betti_row(n, level, f, b)
            row["d_lower"], row["d_upper"] = b[1], c[1] - c[0] + 1
            if row["d_lower"] > row["d_upper"]:
                raise InvariantViolation(
                    f"level {n} field {f.label}: rank bounds crossed, "
                    f"{row['d_lower']} > {row['d_upper']}")
            row["target_rg"] = target
            yield row, dict(extra)
    return _Plan(CSV_COLUMNS, cfg.fields, fill, notes)


def _plan_deficiency(cfg, group, chain):
    """Bound the (negated) deficiency of each kernel.

    def_upper = c2 - c1 + c0 - 1 counts the level's cells; def_lower =
    b2 - b1 over each field K, one row per field, since any presentation
    has r - g >= b2 - b1 over K (Euler characteristic and Hopf), valid when
    the presentation complex is aspherical so the cover's b2 is the group's.
    Both bounds divided by the index approach the Euler characteristic.
    """
    _require_presentation(chain, "deficiency bounds")
    aspherical = chain.group.aspherical
    notes = ()
    if not aspherical:
        notes = ("def_lower omitted: without an aspherical presentation "
                 "complex, b2 of the cover only bounds the group's b2 "
                 "from above",)
    target = Fraction(group.euler)

    def fill(n, level, numbers):
        extra = {"provenance": level.provenance}
        c = _level_cells(group, level, extra)
        for f in cfg.fields:
            row = _betti_row(n, level, f, numbers[f])
            row["def_upper"] = c[2] - c[1] + c[0] - 1
            if aspherical:
                row["def_lower"] = row["b2"] - row["b1"]
                if row["def_lower"] > row["def_upper"]:
                    raise InvariantViolation(
                        f"level {n} field {f.label}: deficiency bounds "
                        f"crossed, {row['def_lower']} > {row['def_upper']}")
            row["target_dg"] = target
            yield row, dict(extra)
    return _Plan(CSV_COLUMNS, cfg.fields, fill, notes)


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

    def fill(n, level, numbers):
        extra = {"provenance": level.provenance}
        ratio = Fraction(_level_cells(group, level, extra)[k], level.index)
        extra["volume_degree"] = k
        row = _row(CSV_COLUMNS, level=n, index=level.index, vol2_ratio=ratio)
        if check_edges:
            shadows = edge_shadow_indices(graph, level)
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

    On a product chain of free groups, Kunneth over the factor levels'
    b1 = c1 - c0 + 1 must give b0 and b1, and b2 for two factors; with three
    or more, the product presentation's 2-complex is only a 2-skeleton.
    """
    _require_presentation(chain, "homology")
    free = chain.factors and not any(f.presentation.relators
                                     for f in group.factors)
    degrees = 3 if len(group.factors) == 2 else 2

    def fill(n, level, numbers):
        if free:
            cells = [_level_cells(g, fc.levels[n - 1], {})
                     for g, fc in zip(group.factors, chain.factors)]
            dims = [c[1] - c[0] + 1 for c in cells]
            want = [kunneth_product_dims(dims, q) for q in range(len(dims) + 1)]
        for f in cfg.fields:
            b = numbers[f]
            extra = {"provenance": level.provenance, "betti": list(b)}
            if free:
                for q in range(degrees):
                    got = b[q] if q < len(b) else 0
                    if got != want[q]:
                        raise InvariantViolation(
                            f"level {n} field {f.label}: b{q} = {got} but "
                            f"the factor ranks {dims} predict {want[q]}")
                extra["factor_ranks"] = dims
                extra["predicted_betti"] = want
            yield _betti_row(n, level, f, b), extra
    return _Plan(CSV_COLUMNS, cfg.fields, fill, _b2_notes(chain))


def _plan_mvcheck(cfg, group, chain):
    """Verify the gluing inequality for b1 and b2 of every level cover:

        b_j(B) <= sum_v copies * b_j(B n G_v) + sum_e copies * b_j(B n G_e)
                  + 2 sum_e copies * b_{j-1}(B n G_e)

    with unreduced b_0.  A local b_j is the block's cell count
    sub_volume_vector(local)[j]: a block's complex has zero boundary maps,
    so its cells are its Betti numbers over every field.  A negative slack
    fails the run.
    """
    _require_presentation(chain, "the gluing check")
    if group.graph is None:
        raise ValueError("the gluing check needs a graph of groups")
    graph = group.graph

    def fill(n, level, numbers):
        vertex_rows, edge_rows = (
            [(copies, block.sub_volume_vector(local))
             for block, copies, local in rows]
            for rows in subgroup_shadows(graph, level))
        for f in cfg.fields:
            b = numbers[f]
            for j in (1, 2):
                lhs = b[j] if j < len(b) else 0
                rhs = sum(copies * cells[j] for copies, cells in vertex_rows)
                rhs += sum(copies * (cells[j] + 2 * cells[j - 1])
                           for copies, cells in edge_rows)
                if lhs > rhs:
                    raise InvariantViolation(
                        f"level {n} field {f.label}: b{j} = {lhs} exceeds "
                        f"the gluing bound {rhs}")
                yield (_row(MV_COLUMNS, level=n, index=level.index,
                            field=f.label, j=j, lhs=lhs, rhs=rhs,
                            slack=rhs - lhs),
                       {"provenance": level.provenance})
    return _Plan(MV_COLUMNS, cfg.fields, fill, _b2_notes(chain))


KINDS = {
    "rank": _plan_rank,
    "deficiency": _plan_deficiency,
    "volume": _plan_volume,
    "homology": _plan_homology,
    "mvcheck": _plan_mvcheck,
}


def _certify_betti(n, numbers):
    """Certificates every level's betti numbers must pass: b0 = 1 over every
    field, since the cover is connected, and b_i over GF(p) >= b_i over Q,
    by universal coefficients, when Q is among the fields.  The collapsed
    cover has one vertex and d1 = 0, so b0 = 1 also holds by construction;
    the check stays as a guard on the complex."""
    for f, b in numbers.items():
        if b[0] != 1:
            raise InvariantViolation(f"level {n} field {f.label}: b0 = "
                                     f"{b[0]}, but the cover is connected")
    rational = numbers.get(QQ)
    if rational is None:
        return
    for f, b in numbers.items():
        for i, (mod_p, over_q) in enumerate(zip(b, rational)):
            if mod_p < over_q:
                raise InvariantViolation(
                    f"level {n} field {f.label}: b{i} = {mod_p} is below "
                    f"b{i} = {over_q} over q")


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
        numbers = None
        if plan.fields is not None:
            cx = covering_complex(level_coset_table(chain.group, level,
                                                    cfg.max_cosets))
            numbers = {f: betti(cx, f) for f in plan.fields}
            _certify_betti(n, numbers)
        for row, extra in plan.fill(n, level, numbers):
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
