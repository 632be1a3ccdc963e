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
import csv
import functools
import json
import sys

from .coset_enum import parse_table_dump, to_perm_rep
from .errors import InputError, ParseError, ResourceLimitError
from .pipeline import (
    EnumerationConfig,
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
from .words import describe_endo_word

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INPUT = 3
EXIT_RESOURCE = 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser.  ``main`` builds it on its first call and reuses
    it, since building takes about twenty times as long as parsing one
    command line; importing the module builds nothing."""
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
    common.add_argument("--reduction-cap", type=int, default=defaults.reduction_cap)
    common.add_argument("--format", choices=("table", "csv", "json"), default="table")
    common.add_argument("-v", "--verbose", action="store_true")
    # for the commands that enumerate a subgroup from its generators
    enumerating = argparse.ArgumentParser(add_help=False)
    enumerating.add_argument("--subgroup", required=True, help="comma-separated generator words")
    enumerating.add_argument("--level", type=int, default=0, help="initial truncation level")
    enumerating.add_argument("--max-cosets", type=int, default=defaults.initial_max_cosets)
    enumerating.add_argument("--escalation-factor", type=int, default=defaults.escalation_factor)
    enumerating.add_argument("--hard-ceiling", type=int, default=defaults.hard_ceiling)
    both = [common, enumerating]

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("index", parents=both, help="index of a subgroup")

    p = sub.add_parser("member", parents=both, help="membership in a subgroup")
    p.add_argument("--word", required=True)

    sub.add_parser("core", parents=both, help="core of a subgroup")

    p = sub.add_parser("intersect", parents=both, help="intersection of two subgroups")
    p.add_argument("--subgroup2", required=True)

    p = sub.add_parser("low-index", parents=[common], help="all subgroups up to an index")
    p.add_argument("--max-index", type=int, required=True)
    p.add_argument("--level", type=int, default=1, help="covering level of the search")
    p.add_argument("--normal", action="store_true", help="show normal-subgroup counts")
    p.add_argument("--maximal", action="store_true", help="show maximal-subgroup counts")
    p.add_argument("--list", action="store_true", help="list every subgroup")
    p.add_argument("--max-tables", type=int, default=None)

    p = sub.add_parser("validate", parents=[common], help="replay validity on a table dump")
    p.add_argument("--table", required=True, help="path to a coset-table dump")
    # an option the command does not read is refused in the command's usage
    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


def _enumerating(args) -> tuple[LPresentation, EnumerationConfig]:
    """The presentation and the escalation settings of a command that
    enumerates; the settings are checked before the presentation is read."""
    cfg = EnumerationConfig(
        initial_level=args.level,
        initial_max_cosets=args.max_cosets,
        escalation_factor=args.escalation_factor,
        hard_ceiling=args.hard_ceiling,
        reduction_cap=args.reduction_cap,
    )
    return load_presentation(args.presentation), cfg


def _emit_payload(args, payload: dict, out) -> None:
    """Uniform scalar output: aligned text, key,value CSV, or JSON.  Outside
    JSON, lists and dicts are left out and booleans read ``true``/``false``."""
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2), file=out)
        return
    scalars = [
        (key, str(value).lower() if isinstance(value, bool) else value)
        for key, value in payload.items()
        if not isinstance(value, (list, dict))
    ]
    if args.format == "csv":
        csv.writer(out, lineterminator="\n").writerows(scalars)
    else:
        for key, value in scalars:
            print(f"{key}: {value}", file=out)


def _subgroup(lp: LPresentation, text: str, cfg: EnumerationConfig, trace) -> FiniteIndexSubgroup:
    spec = parse_subgroup(lp.alphabet, text)
    return finite_index_subgroup(lp, spec, cfg, trace)


def _subgroup_payload(result: FiniteIndexSubgroup, args) -> dict:
    """Index, generators and table of a computed subgroup; outside JSON the
    generators are one comma-separated string."""
    gens = [str(g) for g in result.generators]
    return {
        "index": result.index,
        "generators": gens if args.format == "json" else ", ".join(gens),
        "table": [list(row) for row in result.table.rows],
    }


def _cmd_index(args, trace, out) -> None:
    lp, cfg = _enumerating(args)
    spec = parse_subgroup(lp.alphabet, args.subgroup)
    result = enumerate_cosets(lp, spec, cfg, trace)
    payload = {
        "index": result.index,
        "level": result.level_used,
        "escalations": result.escalations,
        "table": [list(row) for row in result.table.rows],
    }
    _emit_payload(args, payload, out)


def _cmd_member(args, trace, out) -> None:
    lp, cfg = _enumerating(args)
    sub = _subgroup(lp, args.subgroup, cfg, trace)
    w = parse_word(lp.alphabet, args.word)
    _emit_payload(args, {"member": sub.contains(w)}, out)


def _cmd_core(args, trace, out) -> None:
    lp, cfg = _enumerating(args)
    sub = _subgroup(lp, args.subgroup, cfg, trace)
    result = core(sub, args.reduction_cap)
    _emit_payload(args, _subgroup_payload(result, args), out)


def _cmd_intersect(args, trace, out) -> None:
    lp, cfg = _enumerating(args)
    u = _subgroup(lp, args.subgroup, cfg, trace)
    v = _subgroup(lp, args.subgroup2, cfg, trace)
    result = intersect(u, v)
    _emit_payload(args, _subgroup_payload(result, args), out)


def _cmd_low_index(args, trace, out) -> None:
    if args.list and args.format == "csv":
        args.parser.error("--list has no CSV form; use --format table or json")
    slist = low_index(
        load_presentation(args.presentation),
        args.max_index,
        level=args.level,
        cap=args.reduction_cap,
        max_tables=args.max_tables,
        trace=trace,
    )
    mark = args.normal or args.maximal or args.list
    if mark:
        slist = mark_normal_and_maximal(slist)
    if args.format == "json":
        _emit_payload(args, report_json(slist, include_entries=args.list), out)
    elif args.format == "csv":
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


def _cmd_validate(args, trace, out) -> None:
    lp = load_presentation(args.presentation)
    try:
        with open(args.table, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read table dump {args.table!r}: {exc}") from exc
    table = parse_table_dump(lp.alphabet, text)
    outcome = decide_validity(lp, to_perm_rep(table), args.reduction_cap, trace)
    payload: dict = {"verdict": "valid" if outcome.valid else "invalid"}
    if not outcome.valid:
        w = outcome.witness
        payload["relator"] = str(w.relator)
        payload["endomorphism"] = describe_endo_word(w.endo, lp.endomorphism_names)
        payload["coset"] = w.coset
    payload["table"] = [list(row) for row in table.rows]
    _emit_payload(args, payload, out)


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
    args, unknown = _build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        trace = functools.partial(print, file=err) if args.verbose else None
        _COMMANDS[args.command](args, trace, out)
        return EXIT_OK
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
