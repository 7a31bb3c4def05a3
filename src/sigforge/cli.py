"""Command-line entry point.

Commands: tsc, bound, extend, chain, compare, report. Exit codes: 0 on
success, 2 on validation failure (a ValueError: bad files, bad arguments,
caps; an OSError; memory the input needs but cannot get), 3 on an
InternalConsistencyError (a guaranteed equality broke, which means the
implementation is wrong, not the input).
"""

from __future__ import annotations

import argparse
import sys

from .bounds import binary_tsc_bound, welch_bound
from .harness import (
    INPUT_ERRORS,
    METHODS,
    _METHOD_LABELS,
    _error_text,
    emit_report,
    extend_once,
    one_shot_experiment,
    upscale_chain,
)
from .sigcore import (InternalConsistencyError, _parse_integer, hadamard_set, load_set, save_set,
                      tsc)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigforge",
        description="Grow binary signature sets one signature at a time with "
        "guaranteed-minimal total squared correlation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--method", choices=METHODS, default="sd")
    run.add_argument("--audit", action="store_true",
                     help="force the sphere-vs-exhaustive equality check")
    start = argparse.ArgumentParser(add_help=False, parents=[run])
    start.add_argument("set_file", nargs="?", help="initial set file")
    start.add_argument("--hadamard", type=_parse_integer, metavar="L",
                       help="start from the L x L Hadamard set instead of a file")

    p = sub.add_parser("tsc", help="total squared correlation of a set file")
    p.set_defaults(handler=_cmd_tsc)
    p.add_argument("set_file")

    p = sub.add_parser("bound", help="TSC lower bounds for given K and L")
    p.set_defaults(handler=_cmd_bound)
    p.add_argument("--k", type=_parse_integer, required=True, help="number of signatures")
    p.add_argument("--l", dest="length", type=_parse_integer, required=True,
                   help="signature length")

    p = sub.add_parser("extend", parents=[run], help="add one signature to a set")
    p.set_defaults(handler=_cmd_extend)
    p.add_argument("set_file")
    p.add_argument("--save-set", metavar="PATH", help="write the extended set here")

    p = sub.add_parser("chain", parents=[start], help="extend one-by-one up to a target K")
    p.set_defaults(handler=_cmd_chain)
    p.add_argument("--to", dest="target", type=_parse_integer, required=True, metavar="K")
    p.add_argument("--save-set", metavar="PATH", help="write the final set here")

    p = sub.add_parser("compare", help="run all methods on each set file")
    p.set_defaults(handler=_cmd_compare)
    p.add_argument("set_files", nargs="*")

    p = sub.add_parser("report", parents=[start], help="run a chain and write a report "
                       "file (default start: the 16 x 16 Hadamard set)")
    p.set_defaults(handler=_cmd_report)
    p.add_argument("--to", dest="target", type=_parse_integer, default=32, metavar="K")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), required=True)
    p.add_argument("--out", required=True, metavar="PATH")

    return parser


def _out(text: str, end: str = "\n") -> None:
    """Write to stdout in UTF-8 whatever its own encoding, so a file name
    never fails a finished run: a character UTF-8 cannot hold (an
    undecodable byte of a name) is backslash-escaped. A stdout with no byte
    layer underneath, such as an io.StringIO, gets the text itself; a closed
    one (None, as Python sets it when fd 1 is closed) is an OSError."""
    if sys.stdout is None:
        raise OSError("stdout is closed")
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(text + end)
        return
    sys.stdout.flush()
    buffer.write((text + end).encode("utf-8", errors="backslashreplace"))


def _cmd_tsc(args) -> int:
    loaded = load_set(args.set_file)
    _out(f"k {loaded.k}")
    _out(f"length {loaded.length}")
    _out(f"tsc {tsc(loaded)}")
    _out(f"welch {welch_bound(loaded.k, loaded.length).value}")
    return 0


def _cmd_bound(args) -> int:
    _out(f"welch {welch_bound(args.k, args.length).value}")
    if args.k < args.length:
        _out("binary n/a (requires K >= L)")
    else:
        bound = binary_tsc_bound(args.k, args.length)
        _out(f"binary {bound.value} ({bound.kind})")
    return 0


def _print_record(record) -> None:
    _out(f"method {_METHOD_LABELS[record.method]}")
    _out(f"k_before {record.k_before}")
    _out(f"k_after {record.k_after}")
    _out(f"length {record.length}")
    _out(f"metric {record.metric}")
    _out(f"tsc_before {record.tsc_before}")
    _out(f"tsc_after {record.tsc_after}")
    _out(f"radius_c {record.radius_c!r}")
    _out(f"lambda_min {record.lambda_min!r}")
    _out(f"nodes_visited {record.nodes_visited}")
    _out(f"candidates_enumerated {record.candidates_enumerated}")
    _out(f"fp_bound {'n/a' if record.fp_bound is None else repr(record.fp_bound)}")
    _out(f"jitter_applied {'true' if record.jitter_applied else 'false'}")
    _out(f"welch_after {record.welch_after.value}")
    _out(f"binary_bound_after {record.binary_bound_after.value} "
         f"({record.binary_bound_after.kind})")
    _out(f"audit {'skipped' if record.audit_agreement is None else 'pass'}")


def _cmd_extend(args) -> int:
    loaded = load_set(args.set_file)
    extended, record, _ = extend_once(loaded, args.method, audit=args.audit)
    _print_record(record)
    if args.save_set:
        save_set(extended, args.save_set)
        _out(f"saved {args.save_set}")
    return 0


def _run_chain(args, default_hadamard: int | None):
    """The chain from the set file or the --hadamard start (``default_hadamard``
    when neither is given) to --to, run with --method and --audit."""
    if args.set_file is not None and args.hadamard is not None:
        raise ValueError("give either a set file or --hadamard, not both")
    if args.set_file is not None:
        start = load_set(args.set_file)
    else:
        length = args.hadamard if args.hadamard is not None else default_hadamard
        if length is None:
            raise ValueError("give a set file or --hadamard L")
        start = hadamard_set(length)
    return upscale_chain(start, args.target, args.method, audit=args.audit)


def _cmd_chain(args) -> int:
    report = _run_chain(args, default_hadamard=None)
    for step, record in enumerate(report.records, start=1):
        audit = "skipped" if record.audit_agreement is None else "pass"
        _out(f"step {step}  k_after {record.k_after}  metric {record.metric}  "
             f"tsc_after {record.tsc_after}  audit {audit}")
    final = report.final_set
    _out(f"final k {final.k}")
    _out(f"final tsc {report.records[-1].tsc_after}")
    if args.save_set:
        save_set(final, args.save_set)
        _out(f"saved {args.save_set}")
    return 0


def _cmd_compare(args) -> int:
    report = one_shot_experiment(args.set_files)
    _out(emit_report(report, "csv").decode("utf-8"), end="")
    failed = sum(1 for entry in report.entries if entry.error is not None)
    return 2 if failed else 0


def _cmd_report(args) -> int:
    report = _run_chain(args, default_hadamard=16)
    payload = emit_report(report, args.fmt)
    with open(args.out, "wb") as handle:
        handle.write(payload)
    _out(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except INPUT_ERRORS as exc:
        print(f"error: {_error_text(exc)}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {_error_text(exc)}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
