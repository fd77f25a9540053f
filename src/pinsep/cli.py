"""Command-line front end.

Contexts come from a YAML document (path via --context, or '-' for
stdin).  A field name is a field of that document or a family stage
("exe1" or "exe1:2") of the document or of the built-in families.
Output is human-readable by default and a versioned JSON report with
--json; identical invocations produce identical bytes.

Exit codes: 0 success, 2 parse/usage errors, 3 cap errors (the ambient
level, an oversized parsed expression), 4 internal inconsistencies (bug
witnesses, e.g. oracle disagreement).
"""

from __future__ import annotations

import argparse
import functools
import inspect
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from . import report as rpt
from .exprs import is_name, parse_element
from .invariants import InternalInconsistency, di as inv_di
from .perfect import CapExceeded, Context
from .subfields import Subfield
from .towers import FAMILIES, TowerFamily, family as make_family


class ConfigError(ValueError):
    pass


@dataclass
class ContextConfig:
    """A parsed configuration document: context, bindings, fields, families."""

    ctx: Context
    bindings: dict = dc_field(default_factory=dict)
    fields: dict = dc_field(default_factory=dict)       # name -> list[PerfElem]
    families: dict = dc_field(default_factory=dict)     # name -> TowerFamily


RESERVED = {"rt"}


def load_config(text: str) -> ContextConfig:
    # Only context documents need PyYAML, so commands without --context
    # neither load it nor require it.
    try:
        import yaml
    except ImportError as exc:
        raise ConfigError(f"reading a context document needs PyYAML: "
                          f"{exc}") from exc
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc
    except RecursionError:
        raise ConfigError("invalid YAML: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a mapping")
    try:
        p = int(doc["p"])
        variables = doc["variables"]
        cap = int(doc.get("ambient_cap", 6))
    except KeyError as exc:
        raise ConfigError(f"missing required key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'p' and 'ambient_cap' must be integers: "
                          f"{exc}") from exc
    if not isinstance(variables, list):
        raise ConfigError("'variables' must be a list of names")
    variables = tuple(str(v) for v in variables)
    for key in ("bindings", "fields", "families"):
        if doc.get(key) is not None and not isinstance(doc[key], dict):
            raise ConfigError(f"{key!r} must be a mapping of names")
    for v in variables:
        if v in RESERVED:
            raise ConfigError(f"variable name {v!r} is reserved")
        if not is_name(v):
            raise ConfigError(f"variable name {v!r} is not a name of the "
                              f"element grammar (a letter or _, then "
                              f"letters, digits or _)")
    try:
        ctx = Context(p, variables, cap)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cfg = ContextConfig(ctx)
    names_seen = set(variables)
    for name, expr in (doc.get("bindings") or {}).items():
        name = str(name)
        if name in names_seen or name in RESERVED:
            raise ConfigError(f"duplicate or reserved name {name!r}")
        names_seen.add(name)
        cfg.bindings[name] = parse_element(ctx, str(expr), cfg.bindings)
    for name, exprs in (doc.get("fields") or {}).items():
        name = str(name)
        if name in names_seen or name in RESERVED:
            raise ConfigError(f"duplicate or reserved name {name!r}")
        names_seen.add(name)
        if not isinstance(exprs, list):
            raise ConfigError(f"field {name!r} must map to a list of expressions")
        cfg.fields[name] = [parse_element(ctx, str(e), cfg.bindings)
                            for e in exprs]
    for name, spec in (doc.get("families") or {}).items():
        name = str(name)
        if name in names_seen or name in FAMILIES:
            raise ConfigError(f"duplicate or built-in family name {name!r}")
        names_seen.add(name)
        cfg.families[name] = _custom_family(ctx, name, spec, cfg.bindings)
    return cfg


def _custom_family(ctx, name, entry, bindings) -> TowerFamily:
    """A document family; its top stage defaults to a schedule's last
    listed stage, or to 3 for a template."""
    if not isinstance(entry, dict):
        raise ConfigError(f"family {name!r} must be a mapping")
    schedule_map = entry.get("schedule")
    template = entry.get("template")
    if schedule_map is not None and not (
            isinstance(schedule_map, dict)
            and all(isinstance(v, list) for v in schedule_map.values())):
        raise ConfigError(f"family {name!r}: 'schedule' must map stages "
                          f"to lists of expressions")
    if template is not None and not isinstance(template, list):
        raise ConfigError(f"family {name!r}: 'template' must be a list "
                          f"of expressions")
    stages = {_integer(str(k), f"family {name!r}: a 'schedule' stage"): exprs
              for k, exprs in (schedule_map or {}).items()}
    try:
        max_stage = int(entry.get("max_stage", max(stages) if stages else 3))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"family {name!r}: 'max_stage' must be an integer: "
                          f"{exc}") from exc
    if schedule_map is None and template is None:
        raise ConfigError(f"family {name!r} needs a schedule or a template")

    def schedule(n):
        if schedule_map is not None:
            if n not in stages:
                raise ConfigError(f"family {name!r} has no stage {n}")
            exprs = stages[n]
        else:
            exprs = ([str(t).replace("$n", str(n)) for t in template]
                     if n else [])
        return [parse_element(ctx, str(e), bindings) for e in exprs]

    return TowerFamily(name, ctx, schedule, max_stage,
                       params={"source": "config"})


# ----------------------------------------------------------------------
# Field and family resolution
# ----------------------------------------------------------------------


def resolve_family(cfg, name, params, n=None) -> TowerFamily:
    """A document family, which takes no parameters, else a built-in one;
    a stage n is also the parameter n of exe1, exe2 and exe4, and must
    then agree with an n given among the parameters."""
    if cfg is not None and name in cfg.families:
        if params:
            raise ConfigError("config families take no parameters")
        return cfg.families[name]
    builder = FAMILIES.get(name)
    if builder is not None:
        if n is not None and "n" in inspect.signature(builder).parameters:
            if params.get("n", n) != n:
                raise ConfigError(f"--n {n} and --params n={params['n']} "
                                  f"differ")
            params = dict(params, n=n)
        return make_family(name, **params)
    raise ConfigError(f"unknown family {name!r}; built-in families: "
                      f"{', '.join(sorted(set(FAMILIES) - {'exe3'}))}")


def resolve_field(cfg, name) -> tuple:
    """Resolve a field reference to (Subfield, display-name): a field of
    the context document, else NAME[:STAGE] of the family resolve_family
    finds, at its top stage by default."""
    if cfg is not None and name in cfg.fields:
        return Subfield.span(cfg.ctx, cfg.fields[name]), name
    base, colon, stage = name.partition(":")
    try:
        fam = resolve_family(cfg, base, {})
    except ConfigError as exc:
        raise ConfigError(f"unknown field {name!r} ({exc})") from None
    return fam.stage(_integer(stage, f"the stage of field {name!r}")
                     if colon else fam.max_stage), name


def resolve_pair(cfg, name1, name2) -> tuple:
    """Resolve two field references of one context to (K, L, names)."""
    K, kname = resolve_field(cfg, name1)
    L, lname = resolve_field(cfg, name2)
    if K.ctx != L.ctx:
        raise ConfigError("the two fields live in different contexts")
    return K, L, (kname, lname)


def _integer(text, what) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{what} must be an integer, got {text!r}") from None


def parse_params(text) -> dict:
    out = {}
    if not text:
        return out
    for part in text.split(","):
        if "=" not in part:
            raise ConfigError(f"bad parameter {part!r}; expected key=value")
        k, _, v = part.partition("=")
        out[k.strip()] = _integer(v, f"parameter {k.strip()!r}")
    return out


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def _emit(args, rep: dict) -> None:
    if args.json:
        print(rpt.to_json(rep))
    else:
        print(rpt.to_text(rep))


def cmd_invariants(args, cfg):
    K, name = resolve_field(cfg, args.field)
    _emit(args, rpt.invariant_report(K, name=name, oracle=args.oracle))


def cmd_rbase(args, cfg):
    K, name = resolve_field(cfg, args.field)
    if args.oracle:
        rpt.oracle_checks(K)
    _emit(args, rpt.rbase_report(K, name=name))


def cmd_modular(args, cfg):
    K, name = resolve_field(cfg, args.field)
    method = "both" if args.oracle else args.method
    _emit(args, rpt.modular_report(K, method=method, name=name))


def cmd_truncate(args, cfg):
    K, name = resolve_field(cfg, args.field)
    _emit(args, rpt.truncate_report(K, args.n, name=name))


def cmd_lattice(args, cfg):
    K, L, names = resolve_pair(cfg, args.field1, args.field2)
    _emit(args, rpt.lattice_report(args.command, K, L, names))


def cmd_member(args, cfg):
    K, name = resolve_field(cfg, args.field)
    bindings = cfg.bindings if cfg else None
    e = parse_element(K.ctx, args.element, bindings)
    _emit(args, rpt.member_report(K, e, name=name))


def cmd_family(args, cfg):
    given = [f for f in ("horizon", "smax") if getattr(args, f) is not None]
    if args.sub == "claims" and given:
        raise ConfigError(f"family claims takes no --{given[0]}")
    if args.smax is not None and args.horizon is None:
        raise ConfigError("family invariants takes --smax only with --horizon")
    fam = resolve_family(cfg, args.name, parse_params(args.params), args.n)
    if args.sub == "claims":
        rep = rpt.claims_report(fam)
        _emit(args, rep)
        if not all(c["passed"] for c in rep["claims"]):
            raise InternalInconsistency("a documented family claim failed")
        return
    n = args.n if args.n is not None else fam.max_stage
    K = fam.stage(n)
    utable = None
    if args.horizon is not None:
        smax = args.smax if args.smax is not None else max(1, inv_di(K))
        utable = rpt.utable_report(fam, args.horizon, smax)
    _emit(args, rpt.invariant_report(K, name=f"{fam.name}:{n}",
                                     oracle=args.oracle, utable=utable))


def cmd_utable(args, cfg):
    params = parse_params(args.params)
    fam = resolve_family(cfg, args.family, params)
    _emit(args, rpt.utable_report(fam, args.horizon, args.smax))


def cmd_parity(args, cfg):
    _emit(args, rpt.parity_report(args.n))


@functools.cache
def build_parser():
    """The argument parser, built on the first call and then reused.

    parse_args leaves the parser unchanged and returns a fresh namespace,
    so every main() call of a process can share one parser.
    """
    ap = argparse.ArgumentParser(
        prog="pinsep",
        description="exact invariants of purely inseparable extensions "
                    "of F_p(x_1, ..., x_nu)")
    ap.add_argument("--context", help="YAML context document (path or '-')")
    ap.add_argument("--json", action="store_true",
                    help="emit the versioned JSON report")
    ap.add_argument("--oracle", action="store_true",
                    help="run redundant cross-checks and fail loudly on "
                         "disagreement (CI profile)")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("invariants", help="full invariant report of a field")
    sp.add_argument("field")
    sp.set_defaults(fn=cmd_invariants)

    sp = sub.add_parser("rbase", help="canonical r-base and defining equations")
    sp.add_argument("field")
    sp.set_defaults(fn=cmd_rbase)

    sp = sub.add_parser("modular", help="modularity verdict with witness")
    sp.add_argument("field")
    sp.add_argument("--method", default="both",
                    choices=["criterion", "disjointness", "both"])
    sp.set_defaults(fn=cmd_modular)

    sp = sub.add_parser("truncate", help="k_n = K ∩ k^(1/p^n)")
    sp.add_argument("field")
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(fn=cmd_truncate)

    sp = sub.add_parser("intersect", help="intersection of two fields")
    sp.add_argument("field1")
    sp.add_argument("field2")
    sp.set_defaults(fn=cmd_lattice)

    sp = sub.add_parser("compositum", help="compositum of two fields")
    sp.add_argument("field1")
    sp.add_argument("field2")
    sp.set_defaults(fn=cmd_lattice)

    sp = sub.add_parser("member", help="exact membership test")
    sp.add_argument("element")
    sp.add_argument("field")
    sp.set_defaults(fn=cmd_member)

    sp = sub.add_parser("family", help="family claims or stage invariants")
    sp.add_argument("name")
    sp.add_argument("sub", choices=["claims", "invariants"])
    sp.add_argument("--n", type=int, default=None,
                    help="stage (default: the top stage); exe1, exe2 "
                         "and exe4 also take it as their parameter n")
    sp.add_argument("--params", default="",
                    help="extra family parameters, e.g. t=2,m=3")
    sp.add_argument("--horizon", type=int, default=None,
                    help="embed the U-table up to this horizon")
    sp.add_argument("--smax", type=int, default=None,
                    help="U-table row count, with --horizon (default: di)")
    sp.set_defaults(fn=cmd_family)

    sp = sub.add_parser("utable", help="U_s^j table of a family")
    sp.add_argument("family")
    sp.add_argument("--horizon", type=int, required=True)
    sp.add_argument("--smax", type=int, required=True)
    sp.add_argument("--params", default="")
    sp.set_defaults(fn=cmd_utable)

    sp = sub.add_parser("parity", help="lower/upper parity lengths of n")
    sp.add_argument("n", type=int)
    sp.set_defaults(fn=cmd_parity)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    cfg = None
    try:
        if args.context:
            text = sys.stdin.read() if args.context == "-" else \
                Path(args.context).read_text(encoding="utf-8")
            cfg = load_config(text)
        args.fn(args, cfg)
    except CapExceeded as exc:
        # CapExceeded subclasses ValueError, as do the parse errors
        # (ExprError, ConfigError, NotConstructible, HorizonInsufficient)
        # that exit 2 below; match it first
        print(f"error[cap]: {exc}", file=sys.stderr)
        return 3
    except InternalInconsistency as exc:
        print(f"error[internal-inconsistency]: {exc}", file=sys.stderr)
        return 4
    except (KeyError, ValueError, OSError) as exc:
        print(f"error[parse]: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
