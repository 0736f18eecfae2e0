"""Built-in acceptance checks.

Each check exercises one headline behavior end to end and returns a verdict
with a human-readable detail line.  The CLI selftest command and the test
suite both run these, so a shipped build can prove itself on any machine
with one command.
"""

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .chains import homology_cover_chain, level_coset_table
from .cosets import (low_index_subgroups, perm_rep, standardized_table,
                     todd_coxeter)
from .experiments import ExperimentConfig, run_experiment
from .gog import coset_ratio_check
from .homology import GF2, GF3, QQ, betti, covering_complex, kunneth_product_dims
from .permgrp import Perm, PermGroup, inverse_perm
from .towers import catalog
from .words import presentation_from_texts


@dataclass
class CheckResult:
    name: str
    passed: bool
    seconds: float
    budget: float
    detail: str


def check_free_rank_gradient():
    """Rank bounds pinch to k+1 on the mod-m covers of a rank-2 free group."""
    cfg = ExperimentConfig.from_dict({
        "group": {"catalog": "free_2"},
        "chain": {"type": "homology", "moduli": [2, 4, 8]},
    })
    table = run_experiment("rank", cfg)
    for row in table.rows:
        k = row["index"]
        if row["d_lower"] != row["d_upper"] or row["d_lower"] != k + 1:
            return False, f"index {k}: bounds ({row['d_lower']}, {row['d_upper']})"
        if Fraction(row["d_upper"], k) != 1 + Fraction(1, k):
            return False, f"index {k}: ratio {Fraction(row['d_upper'], k)}"
    return True, f"d = k+1 exactly at indices {table.chain_indices}"


def check_surface_homology_gradient():
    """b1/index approaches 2 on homology covers of the genus-2 surface."""
    cfg = ExperimentConfig.from_dict({
        "group": {"catalog": "surface_2"},
        "chain": {"type": "homology", "moduli": [2, 4]},
    })
    table = run_experiment("homology", cfg)
    got = {row["index"]: row["b1"] for row in table.rows}
    if got != {16: 34, 256: 514}:
        return False, f"b1 by index: {got}"
    gaps = {k: abs(Fraction(b, k) - 2) for k, b in got.items()}
    if gaps != {16: Fraction(1, 8), 256: Fraction(1, 128)}:
        return False, f"gaps {gaps}"
    return True, "b1 = 34 @ 16 and 514 @ 256; gaps to 2 are 1/8 and 1/128"


def check_double_volume_gradient():
    """r2/index halves down the cyclic tower of the doubled free group."""
    cfg = ExperimentConfig.from_dict({
        "group": {"catalog": "double_f2_ab"},
        "chain": {"type": "cyclic", "weights": {"a0": 1, "a1": 1},
                  "moduli": [2, 4, 8]},
    })
    table = run_experiment("volume", cfg)
    ratios = [row["vol2_ratio"] for row in table.rows]
    want = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    if ratios != want:
        return False, f"ratios {ratios}"
    return True, "r2/index = 1/2, 1/4, 1/8 with the edge-shadow identity on"


def check_euler_multiplicativity():
    """chi of each mod-2 cover equals index times chi, over three fields."""
    entries = catalog()
    aspherical = [name for name, e in sorted(entries.items()) if e.aspherical]
    if len(aspherical) < 10:
        return False, f"only {len(aspherical)} aspherical catalog groups"
    checked = 0
    for name in aspherical:
        e = entries[name]
        chain = homology_cover_chain(e.presentation, [2])
        level = chain.levels[0]
        cx = covering_complex(level_coset_table(e.presentation, level))
        for f in (QQ, GF2, GF3):
            b = betti(cx, f)
            chi = sum((-1) ** i * v for i, v in enumerate(b))
            if chi != level.index * e.euler:
                return False, (f"{name} over {f.label}: chi {chi} != "
                               f"{level.index} * {e.euler}")
            checked += 1
    return True, f"{checked} cover/field pairs multiplicative across {len(aspherical)} groups"


def check_product_kunneth():
    """b2 of the product cover matches the symmetric-function count, and the
    closed-form ratio (k+1)^2/k^2 walks down to 1."""
    cfg = ExperimentConfig.from_dict({
        "group": {"catalog": "f2xf2"},
        "chain": {"type": "product", "factors": [
            {"type": "homology", "moduli": [2]},
            {"type": "homology", "moduli": [2]}]},
        "fields": ["q", "gf:2"],
    })
    table = run_experiment("homology", cfg)
    for row in table.rows:
        if (row["b0"], row["b1"], row["b2"]) != (1, 10, 25):
            return False, f"field {row['field']}: betti ({row['b0']}, {row['b1']}, {row['b2']})"
    if kunneth_product_dims([5, 5], 2) != 25:
        return False, "symmetric-function count disagrees"
    ratios = []
    for k in (2, 4, 8, 16, 32):
        b2 = kunneth_product_dims([k + 1, k + 1], 2)
        if b2 != (k + 1) ** 2:
            return False, f"closed form broke at k = {k}"
        ratios.append(Fraction(b2, k * k))
    if ratios != sorted(ratios, reverse=True) or ratios[-1] <= 1:
        return False, f"ratios not monotone to 1: {ratios}"
    if ratios[-1] - 1 != Fraction(65, 1024):
        return False, f"tail gap {ratios[-1] - 1}"
    return True, "b2 = 25 by both routes; (k+1)^2/k^2 decreasing with tail gap 65/1024"


def check_deficiency_bounds():
    """Deficiency sandwich closes on surface and free covers."""
    surf = run_experiment("deficiency", ExperimentConfig.from_dict({
        "group": {"catalog": "surface_2"},
        "chain": {"type": "homology", "moduli": [2]},
    }))
    row = surf.rows[0]
    if not (row["def_lower"] == row["def_upper"] == -33):
        return False, f"surface bounds ({row['def_lower']}, {row['def_upper']})"
    if abs(Fraction(-33, 16) + 2) != Fraction(1, 16):
        return False, "surface gap is wrong"
    free = run_experiment("deficiency", ExperimentConfig.from_dict({
        "group": {"catalog": "free_2"},
        "chain": {"type": "homology", "moduli": [2, 4, 8]},
    }))
    for row in free.rows:
        if not (row["def_lower"] == row["def_upper"] == -(row["index"] + 1)):
            return False, (f"free index {row['index']}: bounds "
                           f"({row['def_lower']}, {row['def_upper']})")
    return True, "surface pinches at -33 @ 16 (gap 1/16); free pinches at -(k+1)"


def check_gluing_inequality():
    """The vertex/edge gluing bound holds for b1 and b2 on two towers."""
    total = 0
    for spec in (
        {"group": {"catalog": "double_f2_ab"},
         "chain": {"type": "cyclic", "weights": {"a0": 1, "a1": 1},
                   "moduli": [2, 4, 8]}},
        {"group": {"catalog": "z_star_z"},
         "chain": {"type": "homology", "moduli": [2, 4, 8]}},
    ):
        table = run_experiment("mvcheck", ExperimentConfig.from_dict(spec))
        if len(table.rows) != 6:
            return False, f"expected 6 rows, got {len(table.rows)}"
        if any(row["slack"] < 0 for row in table.rows):
            return False, "negative slack slipped through"
        total += len(table.rows)
    return True, f"{total} (level, degree) bounds hold on both towers"


def check_enumeration_counts():
    """Low-index search and coset enumeration agree with brute force."""
    f2 = presentation_from_texts(("a", "b"), ())
    tables = low_index_subgroups(f2, 3)
    classes = {}
    subgroups = {}
    for t in tables:
        k = len(t.table)
        classes[k] = classes.get(k, 0) + 1
        subgroups[k] = subgroups.get(k, 0) + len(
            {standardized_table(t.table, s) for s in range(k)})
    if classes != {1: 1, 2: 3, 3: 7}:
        return False, f"classes {classes}"
    # brute force: transitive generator pairs on k points, divided by (k-1)!
    brute = {}
    for k in (2, 3):
        perms = [Perm(p) for p in _all_perms(k)]
        count = 0
        for p in perms:
            for q in perms:
                if _transitive_pair(p, q, k):
                    count += 1
        brute[k] = count // _factorial(k - 1)
    if subgroups != {1: 1, 2: brute[2], 3: brute[3]}:
        return False, f"subgroup counts {subgroups} vs brute {brute}"
    a4 = presentation_from_texts(("a", "b"), ("a^2", "b^3", "a b a b a b"))
    t = todd_coxeter(a4, ())
    group, _ = perm_rep(t)
    if len(t.table) != 12 or group.order() != 12:
        return False, f"enumeration gave {len(t.table)} cosets, order {group.order()}"
    return True, (f"3 + 13 subgroups of index 2, 3 match brute transitive "
                  f"counts; enumeration closes at 12")


def _all_perms(k):
    if k == 1:
        return [(0,)]
    out = []
    for rest in _all_perms(k - 1):
        for slot in range(k):
            out.append(rest[:slot] + (k - 1,) + rest[slot:])
    return out


def _factorial(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def _transitive_pair(p, q, k):
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for img in (p.images[x], q.images[x]):
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    return len(seen) == k


def _smith_divisors(m):
    """Elementary divisors of a sparse integer matrix, by euclidean pivoting."""
    rows = [[m.get(r, c) for c in range(m.cols)] for r in range(m.rows)]
    divisors = []
    top = 0
    while True:
        pivot = None
        best = None
        for r in range(top, len(rows)):
            for c in range(len(rows[r])):
                v = rows[r][c]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (r, c)
        if pivot is None:
            break
        r0, c0 = pivot
        rows[top], rows[r0] = rows[r0], rows[top]
        for r in range(len(rows)):
            rows[r][top], rows[r][c0] = rows[r][c0], rows[r][top]
        again = False
        for r in range(top + 1, len(rows)):
            if rows[r][top]:
                qq = rows[r][top] // rows[top][top]
                for c in range(top, len(rows[r])):
                    rows[r][c] -= qq * rows[top][c]
                if rows[r][top]:
                    again = True
        for c in range(top + 1, len(rows[top])):
            if rows[top][c]:
                qq = rows[top][c] // rows[top][top]
                for r in range(top, len(rows)):
                    rows[r][c] -= qq * rows[r][top]
                if rows[top][c]:
                    again = True
        if again:
            continue
        divisors.append(abs(rows[top][top]))
        top += 1
    # normalize the divisibility ladder
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            a, b = divisors[i], divisors[j]
            g = _gcd(a, b)
            divisors[i], divisors[j] = g, a * b // g
    return divisors


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _predicted_mod_p_betti(cx, p):
    """Betti numbers over GF(p) from integer normal forms of the boundaries."""
    ranks = []
    torsion = []
    for b in cx.boundaries:
        divs = _smith_divisors(b)
        ranks.append(len(divs))
        torsion.append(sum(1 for d in divs if d % p == 0))
    ranks.append(0)
    torsion.append(0)
    out = []
    for i, dim in enumerate(cx.dims):
        rational = dim - (ranks[i - 1] if i else 0) - ranks[i]
        jump = torsion[i] + (torsion[i - 1] if i else 0)
        out.append(rational + jump)
    return out


def check_torsion_jumps():
    """Mod-2 betti exceeds rational betti exactly where integer torsion says."""
    cases = []
    zo = presentation_from_texts(("a",), ("a^2",))
    cases.append(("order-2 group", homology_cover_chain(zo, [1, 2]), zo))
    torus = catalog()["abelian_2"]
    cases.append(("torus", homology_cover_chain(torus.presentation, [2]),
                  torus.presentation))
    jumps = 0
    for name, chain, p in cases:
        for level in chain.levels:
            cx = covering_complex(level_coset_table(p, level))
            rational = betti(cx, QQ)
            mod2 = betti(cx, GF2)
            predicted = _predicted_mod_p_betti(cx, 2)
            if mod2 != predicted:
                return False, (f"{name} index {level.index}: mod-2 betti "
                               f"{mod2}, torsion predicts {predicted}")
            for i in range(len(rational)):
                if mod2[i] < rational[i]:
                    return False, f"{name}: coefficient drop at degree {i}"
                jumps += mod2[i] > rational[i]
    if jumps != 2:
        return False, f"expected exactly 2 torsion jumps, saw {jumps}"
    return True, ("mod-2 jumps appear exactly at the two torsion slots of the "
                  "order-2 base and nowhere on its double cover or the torus")


def check_index_ratio_identity():
    """[G:BH]/[G:B] = 1/[H:B^H] over seeded random quotients and subgroups."""
    rng = random.Random(20260822)
    trials = 0
    for _ in range(100):
        degree = rng.randint(4, 8)
        gens = []
        for _ in range(rng.randint(2, 3)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Perm(tuple(images)))
        quotient = PermGroup(degree, tuple(gens))
        h_images = []
        for _ in range(rng.randint(1, 2)):
            acc = Perm(tuple(range(degree)))
            for _ in range(rng.randint(1, 6)):
                nxt = rng.choice(gens)
                if rng.random() < 0.5:
                    nxt = inverse_perm(nxt)
                acc = acc * nxt
            h_images.append(acc)
        lhs, rhs = coset_ratio_check(quotient, h_images)
        if lhs != rhs:
            return False, f"trial {trials}: {lhs} != {rhs}"
        trials += 1
    return True, f"{trials} random (quotient, subgroup) pairs agree exactly"


ALL_CHECKS = (
    ("free-rank-gradient", check_free_rank_gradient, 5.0),
    ("surface-homology-gradient", check_surface_homology_gradient, 60.0),
    ("double-volume-gradient", check_double_volume_gradient, 5.0),
    ("euler-multiplicativity", check_euler_multiplicativity, 120.0),
    ("product-kunneth", check_product_kunneth, 90.0),
    ("deficiency-bounds", check_deficiency_bounds, 30.0),
    ("gluing-inequality", check_gluing_inequality, 30.0),
    ("enumeration-counts", check_enumeration_counts, 10.0),
    ("torsion-jumps", check_torsion_jumps, 5.0),
    ("index-ratio-identity", check_index_ratio_identity, 10.0),
)


def run_check(name, fn, budget):
    start = time.monotonic()
    try:
        ok, detail = fn()
    except Exception as e:
        ok, detail = False, f"raised {type(e).__name__}: {e}"
    elapsed = time.monotonic() - start
    if ok and elapsed > budget:
        ok = False
        detail += f"; over budget ({elapsed:.1f}s > {budget:.0f}s)"
    return CheckResult(name, ok, elapsed, budget, detail)


def run_all_checks(emit=print):
    results = []
    for name, fn, budget in ALL_CHECKS:
        result = run_check(name, fn, budget)
        verdict = "PASS" if result.passed else "FAIL"
        emit(f"{verdict} {result.name} ({result.seconds:.2f}s): {result.detail}")
        results.append(result)
    failed = [r for r in results if not r.passed]
    emit(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return results
