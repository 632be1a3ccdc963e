"""Command-line front end.

Subcommands: ``index``, ``member``, ``core``, ``intersect``, ``low-index``,
``validate``.  Presentations come from a file or from ``builtin:<name>``;
subgroups and words use the same grammar as presentation files.  Output is
an aligned text table by default, ``--format csv`` or ``--format json``
otherwise, and is byte-identical across identical invocations.

Exit codes: 0 success, 2 parse error, 3 precondition or input error,
4 resource ceiling reached.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .coset_enum import parse_table_dump, to_perm_rep
from .errors import InputError, ParseError, ResourceLimitError
from .pipeline import (
    EnumerationConfig,
    TraceEvent,
    decide_validity,
    enumerate_cosets,
)
from .presentations import (
    LPresentation,
    load_presentation,
    parse_subgroup,
    parse_word,
)
from .subgroups import (
    FiniteIndexSubgroup,
    core,
    finite_index_subgroup,
    format_csv,
    format_report,
    intersect,
    low_index,
    mark_normal_and_maximal,
    report_json,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INPUT = 3
EXIT_RESOURCE = 4

HARD_CEILING_ENV = "LPCOSET_HARD_CEILING"


@dataclass(frozen=True)
class RunConfig:
    """The enumeration settings plus output preferences, validated."""

    enumeration: EnumerationConfig = EnumerationConfig()
    output_format: str = "table"
    verbosity: int = 0

    def __post_init__(self):
        if self.output_format not in ("table", "csv", "json"):
            raise InputError(f"unknown output format {self.output_format!r}")
        if self.verbosity < 0:
            raise InputError("verbosity must be >= 0")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpcoset",
        description="Coset enumeration and subgroup computations for "
        "finitely L-presented groups.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "presentation",
        help="presentation file, or builtin:grigorchuk / builtin:basilica / "
        "builtin:burnside(n,m)",
    )
    defaults = EnumerationConfig()
    common.add_argument("--level", type=int, default=None, help="initial truncation level")
    common.add_argument("--max-cosets", type=int, default=defaults.initial_max_cosets)
    common.add_argument("--escalation-factor", type=int, default=defaults.escalation_factor)
    common.add_argument("--hard-ceiling", type=int, default=None)
    common.add_argument("--reduction-cap", type=int, default=defaults.reduction_cap)
    common.add_argument("--format", choices=("table", "csv", "json"), default="table")
    common.add_argument("-v", "--verbose", action="count", default=0)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", parents=[common], help="index of a subgroup")
    p.add_argument("--subgroup", required=True, help="comma-separated generator words")

    p = sub.add_parser("member", parents=[common], help="membership in a subgroup")
    p.add_argument("--subgroup", required=True)
    p.add_argument("--word", required=True)

    p = sub.add_parser("core", parents=[common], help="core of a subgroup")
    p.add_argument("--subgroup", required=True)

    p = sub.add_parser("intersect", parents=[common], help="intersection of two subgroups")
    p.add_argument("--subgroup", required=True)
    p.add_argument("--subgroup2", required=True)

    p = sub.add_parser("low-index", parents=[common], help="all subgroups up to an index")
    p.add_argument("--max-index", type=int, required=True)
    p.add_argument("--normal", action="store_true", help="show normal-subgroup counts")
    p.add_argument("--maximal", action="store_true", help="show maximal-subgroup counts")
    p.add_argument("--list", action="store_true", help="list every subgroup")
    p.add_argument("--max-tables", type=int, default=None)

    p = sub.add_parser("validate", parents=[common], help="replay validity on a table dump")
    p.add_argument("--table", required=True, help="path to a coset-table dump")
    return parser


def _run_config(args) -> RunConfig:
    ceiling = args.hard_ceiling
    if ceiling is None:
        raw = os.environ.get(HARD_CEILING_ENV, EnumerationConfig().hard_ceiling)
        try:
            ceiling = int(raw)
        except ValueError:
            raise ParseError(f"{HARD_CEILING_ENV}={raw!r} is not an integer") from None
    enumeration = EnumerationConfig(
        initial_level=0 if args.level is None else args.level,
        initial_max_cosets=args.max_cosets,
        escalation_factor=args.escalation_factor,
        hard_ceiling=ceiling,
        reduction_cap=args.reduction_cap,
    )
    return RunConfig(
        enumeration=enumeration,
        output_format=args.format,
        verbosity=args.verbose,
    )


def _trace_printer(cfg: RunConfig, err):
    if cfg.verbosity < 1:
        return None

    def emit(event: TraceEvent) -> None:
        print(str(event), file=err)

    return emit


def _emit_payload(cfg: RunConfig, payload: dict, out) -> None:
    """Uniform scalar output: aligned text, key,value CSV, or JSON."""
    if cfg.output_format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2), file=out)
    elif cfg.output_format == "csv":
        for key, value in payload.items():
            if isinstance(value, (list, dict)):
                continue
            print(f"{key},{value}", file=out)
    else:
        for key, value in payload.items():
            if isinstance(value, (list, dict)):
                continue
            print(f"{key}: {value}", file=out)


def _subgroup(lp: LPresentation, text: str, cfg: RunConfig, trace) -> FiniteIndexSubgroup:
    spec = parse_subgroup(lp.alphabet, text)
    return finite_index_subgroup(lp, spec, cfg.enumeration, trace)


def _subgroup_payload(result: FiniteIndexSubgroup, cfg: RunConfig) -> dict:
    """Index, generators and table of a computed subgroup; outside JSON the
    generators are one comma-separated string."""
    gens = [str(g) for g in result.generators]
    return {
        "index": result.index,
        "generators": gens if cfg.output_format == "json" else ", ".join(gens),
        "table": [list(row) for row in result.table.rows],
    }


def _cmd_index(args, cfg: RunConfig, out, err) -> int:
    lp = load_presentation(args.presentation)
    spec = parse_subgroup(lp.alphabet, args.subgroup)
    result = enumerate_cosets(lp, spec, cfg.enumeration, _trace_printer(cfg, err))
    payload = {
        "index": result.index,
        "level": result.level_used,
        "escalations": result.escalations,
        "table": [list(row) for row in result.table.rows],
    }
    _emit_payload(cfg, payload, out)
    return EXIT_OK


def _cmd_member(args, cfg: RunConfig, out, err) -> int:
    lp = load_presentation(args.presentation)
    sub = _subgroup(lp, args.subgroup, cfg, _trace_printer(cfg, err))
    w = parse_word(lp.alphabet, args.word)
    member = sub.contains(w)
    if cfg.output_format == "json":
        _emit_payload(cfg, {"member": member}, out)
    else:
        _emit_payload(cfg, {"member": str(member).lower()}, out)
    return EXIT_OK


def _cmd_core(args, cfg: RunConfig, out, err) -> int:
    lp = load_presentation(args.presentation)
    sub = _subgroup(lp, args.subgroup, cfg, _trace_printer(cfg, err))
    result = core(sub, cfg.enumeration.reduction_cap)
    _emit_payload(cfg, _subgroup_payload(result, cfg), out)
    return EXIT_OK


def _cmd_intersect(args, cfg: RunConfig, out, err) -> int:
    lp = load_presentation(args.presentation)
    trace = _trace_printer(cfg, err)
    u = _subgroup(lp, args.subgroup, cfg, trace)
    v = _subgroup(lp, args.subgroup2, cfg, trace)
    result = intersect(u, v)
    _emit_payload(cfg, _subgroup_payload(result, cfg), out)
    return EXIT_OK


def _cmd_low_index(args, cfg: RunConfig, out, err) -> int:
    lp = load_presentation(args.presentation)
    level = 1 if args.level is None else args.level
    slist = low_index(
        lp,
        args.max_index,
        level=level,
        cap=cfg.enumeration.reduction_cap,
        max_tables=args.max_tables,
        trace=_trace_printer(cfg, err),
    )
    mark = args.normal or args.maximal or args.list
    if mark:
        slist = mark_normal_and_maximal(slist)
    if cfg.output_format == "json":
        print(
            json.dumps(report_json(slist, include_entries=args.list), sort_keys=True, indent=2),
            file=out,
        )
    elif cfg.output_format == "csv":
        out.write(format_csv(slist, show_normal=args.normal, show_maximal=args.maximal))
    else:
        out.write(format_report(slist, show_normal=args.normal, show_maximal=args.maximal))
        if args.list:
            for e in slist.entries:
                gens = ", ".join(str(g) for g in e.subgroup.generators)
                flags = []
                if e.normal:
                    flags.append("normal")
                if e.maximal:
                    flags.append("maximal")
                suffix = f" [{', '.join(flags)}]" if flags else ""
                print(f"index {e.subgroup.index}{suffix}: <{gens}>", file=out)
    return EXIT_OK


def _cmd_validate(args, cfg: RunConfig, out, err) -> int:
    lp = load_presentation(args.presentation)
    try:
        with open(args.table, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read table dump {args.table!r}: {exc}") from exc
    table = parse_table_dump(lp.alphabet, text)
    outcome = decide_validity(
        lp, to_perm_rep(table), cfg.enumeration.reduction_cap, _trace_printer(cfg, err)
    )
    payload: dict = {"verdict": "valid" if outcome.valid else "invalid"}
    if not outcome.valid:
        w = outcome.witness
        payload["relator"] = str(w.relator)
        payload["endomorphism"] = w.endo.describe(lp.endomorphism_names)
        payload["coset"] = w.coset
    payload["table"] = [list(row) for row in table.rows]
    _emit_payload(cfg, payload, out)
    return EXIT_OK


_COMMANDS = {
    "index": _cmd_index,
    "member": _cmd_member,
    "core": _cmd_core,
    "intersect": _cmd_intersect,
    "low-index": _cmd_low_index,
    "validate": _cmd_validate,
}


def main(argv=None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _run_config(args)
        return _COMMANDS[args.command](args, cfg, out, err)
    except ParseError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_PARSE
    except InputError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INPUT
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
