"""Invariant report construction and serialization.

Reports are plain dicts built with a stable key order, so their JSON
serialization is deterministic byte-for-byte for a fixed input.  The
schema is versioned with a top-level "schema_version".
"""

from __future__ import annotations

import json

from . import invariants as inv
from .linalg import Echelon
from .subfields import Subfield, to_vector

SCHEMA_VERSION = 1


def _field_header(K: Subfield, name=None):
    head = {
        "schema_version": SCHEMA_VERSION,
        "p": K.ctx.p,
        "variables": list(K.ctx.variables),
    }
    if name:
        head["field"] = name
    head["generators"] = [g.render() for g in K.gens]
    return head


def invariant_report(K: Subfield, name=None, oracle=False,
                     utable=None) -> dict:
    """The full invariant record for one field.

    `utable`, when given, is an already-built utable report dict to embed
    (used by family reports that carry their truncation table along).
    """
    rep = _field_header(K, name)
    rep["kind"] = "invariants"
    base = inv.canonical_rbase(K)
    rep["degree_log"] = K.degree_log
    rep["degree"] = K.degree
    rep["di"] = len(base)
    rep["exponents"] = list(base.exponents)
    verdict, witness = inv.is_modular(K, method="both")
    rep["modular"] = {"verdict": verdict, "witness": witness}
    eq, e = inv.is_equiexponential(K)
    rep["equiexponential"] = {"verdict": eq, "exponent": e}
    chain = inv.rp_chain(K)
    rep["rp_chain_degree_logs"] = [L.degree_log for L in chain]
    if utable is not None:
        rep["utable"] = utable
    if oracle:
        rep["oracle"] = oracle_checks(K)
    return rep


def oracle_checks(K: Subfield) -> dict:
    """Independent re-derivations; raises on disagreement (CI profile).

    Bases are built on first use, so a report may read only the degree
    of K and of its Frobenius images.  Here the bases of K and of each
    k(K^(p^j)) with 1 <= j <= o_1(K/k) + 1 (every image the report, the
    rp chain and the by-di exponents ask about) are built first, so the
    insert check of every adjunction behind them runs before any degree
    is compared.  Each image is read off K's greedy r-base, so its degree
    is checked against an independent route: k(K^(p^j)) is the k-span
    of the b^(p^j) over a k-basis b of K, so its degree is their rank.
    The greedy exponents are then re-derived from the degrees of the
    images; by Pickert's theorem those degrees follow from the greedy
    exponents themselves, so this comparison is independent only
    through the rank check above.  rbase_extract checks the size of an
    r-base taken from K's generators against di(K/k).  The disjointness
    test computes k_n only where its Frobenius bounds leave [K : k_n]
    open; here every k_n with 1 <= n < o_1(K/k) is computed and checked
    against them.
    """
    K.basis_vectors()
    for j in range(1, K.level + 2):
        K.frobenius_image(j).basis_vectors()
    basis = K.basis_elements()
    for j in range(1, K.level + 2):
        powers = [b.frob(j) for b in basis]
        level = max(b.level for b in powers)
        ech = Echelon()
        for b in powers:
            ech.insert(to_vector(b, level))
        image = K.frobenius_image(j)
        if len(ech) != image.degree:
            raise inv.InternalInconsistency(
                f"k(K^(p^{j})) has degree p^{image.degree_log}, but the "
                f"p^{j}-th powers of K's basis span {len(ech)} dimensions")
    base = inv.canonical_rbase(K)
    by_di = [inv.exponents_by_di(K, s) for s in range(1, len(base) + 2)]
    greedy = list(base.exponents) + [0]
    if by_di != greedy:
        raise inv.InternalInconsistency(
            f"exponent computations disagree: greedy {greedy}, by-di {by_di}")
    inv.rbase_extract(K)
    for n in range(1, K.level):
        lifted, upper = inv.frobenius_bounds(K, n)
        relative = K.degree_log - K.truncation(n).degree_log
        if not lifted <= relative <= upper:
            raise inv.InternalInconsistency(
                f"[K : k_{n}] = p^{relative} outside its Frobenius bounds "
                f"p^{lifted} and p^{upper}")
    return {
        "exponents_by_di": by_di,
        "di_decomposition": True,  # rbase_extract raises on a size mismatch
        "modularity_methods_agree": True,  # is_modular(both) already enforced
    }


def rbase_report(K: Subfield, name=None) -> dict:
    rep = _field_header(K, name)
    rep["kind"] = "rbase"
    base = inv.canonical_rbase(K)
    rep["rbase"] = [g.render() for g in base.elements]
    rep["exponents"] = list(base.exponents)
    eqs = inv.defining_equations(K)
    rep["defining_equations"] = [
        {"j": j, "eps": list(eps), "coefficient": c.render()}
        for (j, eps), c in sorted(eqs.items())
    ]
    return rep


def modular_report(K: Subfield, method="both", name=None) -> dict:
    rep = _field_header(K, name)
    rep["kind"] = "modular"
    verdict, witness = inv.is_modular(K, method=method)
    rep["method"] = method
    rep["verdict"] = verdict
    rep["witness"] = witness
    return rep


def truncate_report(K: Subfield, n: int, name=None) -> dict:
    trunc = K.truncation(n)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "truncate",
        "field": name,
        "n": n,
        "degree_log": trunc.degree_log,
        "generators": [g.render() for g in trunc.gens],
    }


def lattice_report(op: str, K: Subfield, L: Subfield, names) -> dict:
    """The intersection (op "intersect") or compositum of K and L."""
    result = K.compositum(L) if op == "compositum" else K.intersect(L)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": op,
        "fields": list(names),
        "degree_log": result.degree_log,
        "generators": [g.render() for g in result.gens],
        "linearly_disjoint": K.linearly_disjoint(L),
    }


def member_report(K: Subfield, e, name=None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "member",
        "element": e.render(),
        "field": name,
        "verdict": K.member(e),
    }


def claims_report(fam) -> dict:
    """Run every documented claim of a family; "passed" records each."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "claims",
        "family": fam.describe(),
        "claims": [
            {"id": c.id, "description": c.description, "op": c.op,
             "horizon": c.horizon, "surrogate": c.surrogate,
             "passed": c.run()}
            for c in fam.claims()
        ],
    }


def utable_report(fam, horizon: int, s_max: int) -> dict:
    table = inv.u_table(fam, horizon, s_max)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "utable",
        "family": fam.describe(),
        "horizon": table.horizon,
        "s_max": table.s_max,
        "rows": [list(row) for row in table.entries],
        "row_sups_at_horizon": list(table.row_sups),
        "rows_still_growing": list(table.growing_rows),
        "ilqm_lower_bound": table.ilqm_lower_bound,
        "e_at_horizon": table.e_at_horizon,
        "note": "boundedness is horizon-limited: a flat row is only "
                "known bounded up to the horizon",
    }


def parity_report(n: int) -> dict:
    lengths = inv.parity_lengths(n)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "parity",
        "n": n,
        "lpi": lengths.lpi,
        "lps": lengths.lps,
        "sequence_lower": list(lengths.seq_lower),
        "sequence_upper": list(lengths.seq_upper),
    }


def to_json(rep: dict) -> str:
    return json.dumps(rep, indent=2, sort_keys=False)


def to_text(rep: dict) -> str:
    """Human-readable rendering, deterministic."""
    kind = rep.get("kind")
    lines = []
    if kind == "invariants":
        lines.append(f"field {rep.get('field', '(anonymous)')} over "
                     f"F_{rep['p']}({', '.join(rep['variables'])})")
        lines.append(f"  generators: {', '.join(rep['generators']) or '-'}")
        lines.append(f"  degree: p^{rep['degree_log']} = {rep['degree']}")
        lines.append(f"  di: {rep['di']}")
        lines.append(f"  exponents: {rep['exponents']}")
        mod = rep["modular"]
        lines.append(f"  modular: {mod['verdict']}"
                     + (f"  (witness: {mod['witness']['reason']})"
                        if mod["witness"] else ""))
        eq = rep["equiexponential"]
        lines.append(f"  equiexponential: {eq['verdict']}"
                     + (f" (exponent {eq['exponent']})" if eq["verdict"] else ""))
        lines.append("  rp chain degree logs: "
                     f"{rep['rp_chain_degree_logs']}")
        if "utable" in rep:
            lines.append(to_text(rep["utable"]))
    elif kind == "rbase":
        lines.append(f"canonical r-base of {rep.get('field', '(anonymous)')}:")
        for g, e in zip(rep["rbase"], rep["exponents"]):
            lines.append(f"  exponent {e}: {g}")
        for eq in rep["defining_equations"]:
            lines.append(f"  defining eq j={eq['j']} eps={eq['eps']}: "
                         f"{eq['coefficient']}")
    elif kind == "modular":
        lines.append(f"modular ({rep['method']}): {rep['verdict']}")
        if rep["witness"]:
            lines.append(f"  witness: {rep['witness']['reason']}")
    elif kind == "utable":
        lines.append(f"U-table for {rep['family']['name']} "
                     f"(horizon {rep['horizon']}, s <= {rep['s_max']})")
        for s, row in enumerate(rep["rows"], start=1):
            lines.append(f"  s={s}: {row}")
        lines.append(f"  rows still growing at horizon: "
                     f"{rep['rows_still_growing']}")
        lines.append(f"  Ilqm lower bound: {rep['ilqm_lower_bound']}")
        lines.append(f"  e estimate at horizon: {rep['e_at_horizon']}")
        lines.append(f"  note: {rep['note']}")
    elif kind == "parity":
        lines.append(f"n = {rep['n']}: lpi = {rep['lpi']}, lps = {rep['lps']}")
        lines.append(f"  lower sequence: {rep['sequence_lower']}")
        lines.append(f"  upper sequence: {rep['sequence_upper']}")
    elif kind == "truncate":
        lines.append(f"k_{rep['n']} of {rep['field']}: "
                     f"degree p^{rep['degree_log']}")
        lines.extend(f"  {g}" for g in rep["generators"])
    elif kind in ("intersect", "compositum"):
        lines.append(f"{kind}({', '.join(rep['fields'])}): "
                     f"degree p^{rep['degree_log']}; linearly disjoint "
                     f"over K ∩ L: {rep['linearly_disjoint']}")
    elif kind == "member":
        lines.append(f"{rep['element']} in {rep['field']}: {rep['verdict']}")
    else:  # claims
        name = rep["family"]["name"]
        for c in rep["claims"]:
            tag = "PASS" if c["passed"] else "FAIL"
            surrogate = " [surrogate]" if c["surrogate"] else ""
            lines.append(f"{tag} {name}.{c['id']}{surrogate}: "
                         f"{c['description']}")
    return "\n".join(lines)
