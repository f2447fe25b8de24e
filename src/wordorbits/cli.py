"""Command-line workbench over the library.

Every verb is a thin wrapper around one library operation and prints a
deterministic report: stdout is byte-identical across runs for the same
arguments and format, timing goes to stderr.  Exit codes: 0 on success,
1 when a verification is falsified, 2 on input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import __version__
from .complexity import (BlockPartition, ComplexityTable, OrbitPartition,
                         complexity_table, orbit_classes, verify_complexity_bound)
from .construct import (WitnessReport, build_conjugate_witness,
                        build_isomorphic_witness, christoffel_array,
                        conjugacy_scan, fine_wilf_data)
from .perm import (AbelianSpec, GroupSizeError, PermGroup, parse_cycles,
                   parse_group_spec)
from .words import (FactorSet, InternalCheckError, StabilizationError,
                    factors, parse_word_spec)

STRUCTURED_FORMAT = "wordorbits/1"


def _parse_range(text: str) -> range:
    lo, dots, hi = text.partition("..")
    try:
        ns = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise ValueError(f"bad range {text!r}") from None
    if not ns:
        raise ValueError(f"empty range {text!r}")
    return ns


# ---------------------------------------------------------------------------
# per-verb handlers; each returns (exit_code, payload, text_lines, csv_lines);
# the factors and table handlers, whose lines grow with the input, build only
# the lines of the format asked for and leave the other list empty


def _factors_payload(fs: FactorSet, word_name: str) -> dict:
    return {
        "kind": "factors",
        "word": word_name,
        "n": fs.n,
        "source_prefix_length": fs.source_prefix_length,
        "provenance": fs.provenance,
        "members": list(fs.members),
    }


def _run_factors(args):
    source = parse_word_spec(args.word)
    fs = factors(source, args.n)
    text = ([f"n: {fs.n}", f"count: {len(fs)}", *fs.members]
            if args.format == "text" else [])
    csv_lines = (["n,factor"] + [f"{fs.n},{w}" for w in fs.members]
                 if args.format == "csv" else [])
    return 0, _factors_payload(fs, source.name), text, csv_lines


def _orbits_payload(part: OrbitPartition, word_name: str) -> dict:
    return {
        "kind": "orbits",
        "word": word_name,
        "n": part.factor_set.n,
        "source_prefix_length": part.factor_set.source_prefix_length,
        "provenance": part.factor_set.provenance,
        "members": list(part.factor_set.members),
        "generators": [g.cycle_string() for g in part.group.generators],
        "classes": [list(cls) for cls in part.blocks],
        "epsilon": part.group.epsilon,
        "abelian_transitive": part.abelian_transitive,
    }


def _run_orbits(args):
    source = parse_word_spec(args.word)
    group = parse_group_spec(args.group, args.n)
    part = orbit_classes(factors(source, args.n), group)
    payload = _orbits_payload(part, source.name)
    text = [f"group: {group.descriptor()}", f"classes: {part.class_count}"]
    text += [f"class {i}: " + " ".join(cls)
             for i, cls in enumerate(part.blocks, start=1)]
    text.append(f"epsilon: {payload['epsilon']}")
    text.append(f"abelian-transitive: {str(payload['abelian_transitive']).lower()}")
    csv_lines = ["class,member"]
    csv_lines += [f"{i},{w}" for i, cls in enumerate(part.blocks, start=1)
                  for w in cls]
    return 0, payload, text, csv_lines


def _run_epsilon(args):
    group = parse_group_spec(args.group, args.n)
    orbits = group.point_orbits()
    payload = {
        "kind": "epsilon",
        "n": args.n,
        "generators": [g.cycle_string() for g in group.generators],
        "epsilon": orbits.count,
        "orbits": [list(block) for block in orbits.blocks],
    }
    text = [f"group: {group.descriptor()}", f"epsilon: {orbits.count}"]
    text += [f"orbit {i}: " + " ".join(map(str, block))
             for i, block in enumerate(orbits.blocks, start=1)]
    csv_lines = ["orbit,points"]
    csv_lines += [f"{i}," + " ".join(map(str, block))
                  for i, block in enumerate(orbits.blocks, start=1)]
    return 0, payload, text, csv_lines


def _run_table(args, check: bool):
    source = parse_word_spec(args.word)
    rule = lambda n: parse_group_spec(args.groups, n)
    ns = _parse_range(args.n)
    if check:
        table = verify_complexity_bound(source, rule, ns)
    else:
        # plain tabulation carries no aperiodicity claim
        table = ComplexityTable(source.name, complexity_table(source, rule, ns),
                                "tabulated")
    payload = table.to_structured()
    payload["kind"] = "verify-bound" if check else "complexity-table"
    text = table.to_text().splitlines() if args.format == "text" else []
    csv_lines = table.to_csv().splitlines() if args.format == "csv" else []
    if check:
        code = {"pass": 0, "fail": 1}.get(table.verdict, 2)
    else:
        code = 0
    return code, payload, text, csv_lines


def _witness_lines(report: WitnessReport, fmt: str) -> tuple[list[str], list[str]]:
    """Text and CSV lines of a witness report, built only for those formats."""
    if fmt == "structured":
        return [], []
    blocks = " ".join("{" + ",".join(map(str, b)) + "}"
                      for b in report.partition.blocks)
    text = [
        f"n: {report.degree}",
        f"input: {report.input_kind} [" + ",".join(map(str, report.input_data)) + "]",
        "padded: [" + ",".join(map(str, report.padded_sizes)) + "]",
        f"blocks: {blocks}",
        "cycles: " + " ".join(report.cycle_strings()),
        f"epsilon: {report.epsilon}",
        f"classes: {report.class_count}",
    ]
    text += [f"class {i}: " + " ".join(cls)
             for i, cls in enumerate(report.classes, start=1)]
    text.append(f"passed: {str(report.passed).lower()}")
    csv_lines = ["field,value"]
    csv_lines += [
        f"n,{report.degree}",
        f"input_kind,{report.input_kind}",
        "input_data," + " ".join(map(str, report.input_data)),
        "padded," + " ".join(map(str, report.padded_sizes)),
        "cycles," + " ".join(report.cycle_strings()).replace(",", " "),
        f"epsilon,{report.epsilon}",
        f"class_count,{report.class_count}",
        f"passed,{str(report.passed).lower()}",
    ]
    return text, csv_lines


def _run_witness(args):
    source = parse_word_spec(args.word)
    spec = AbelianSpec.parse(args.abelian)
    report = build_isomorphic_witness(source, args.n, spec)
    payload = report.to_structured()
    payload["word"] = source.name
    text, csv_lines = _witness_lines(report, args.format)
    return (0 if report.passed else 1), payload, text, csv_lines


def _run_conjugate_witness(args):
    source = parse_word_spec(args.word)
    sigma = parse_cycles(args.sigma, args.n)
    report = build_conjugate_witness(source, sigma)
    payload = report.to_structured()
    payload["word"] = source.name
    text, csv_lines = _witness_lines(report, args.format)
    return (0 if report.passed else 1), payload, text, csv_lines


def _run_christoffel(args):
    arr = christoffel_array(args.w)
    payload = arr.to_structured()
    text = arr.render().splitlines()
    csv_lines = ["row,bits"] + [f"{i},{row}"
                                for i, row in enumerate(arr.rows, start=1)]
    return 0, payload, text, csv_lines


def _run_scan(args):
    source = parse_word_spec(args.word)
    group = parse_group_spec(args.group, args.n)
    scan = conjugacy_scan(source, group)
    payload = scan.to_structured()
    payload["word"] = source.name
    text = [
        f"subgroups: {len(scan.rows)}",
        f"min-classes: {scan.min_classes}",
        f"max-classes: {scan.max_classes}",
    ]
    text += [f"classes={count} group={desc}" for desc, count in scan.rows]
    csv_lines = ["classes,group"]
    csv_lines += [f"{count},{desc.replace(',', ' ')}" for desc, count in scan.rows]
    return 0, payload, text, csv_lines


def _run_fine_wilf(args):
    source = parse_word_spec(args.word)
    data = fine_wilf_data(source, args.m)
    payload = data.to_structured()
    payload["word"] = source.name
    fields = [("m", data.m), ("w", data.w), ("w_prev", data.w_prev),
              ("r", data.r), ("s", data.s), ("p", data.p), ("q", data.q),
              ("a", data.a), ("b", data.b), ("c", data.c)]
    text = [f"{k}: {v}" for k, v in fields]
    csv_lines = ["field,value"] + [f"{k},{v}" for k, v in fields]
    return 0, payload, text, csv_lines


# ---------------------------------------------------------------------------
# argument parsing and dispatch


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "csv", "structured"),
                        default="text", help="output format (default: text)")

    parser = argparse.ArgumentParser(
        prog="wordorbits",
        description="factor complexity of infinite words under group actions")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("factors", parents=[common],
                       help="length-n factors of a word")
    p.add_argument("--word", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_run_factors)

    p = sub.add_parser("orbits", parents=[common],
                       help="orbit classes of the factors under a group")
    p.add_argument("--word", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", required=True)
    p.set_defaults(handler=_run_orbits)

    p = sub.add_parser("epsilon", parents=[common],
                       help="point orbits of a permutation group")
    p.add_argument("--group", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_run_epsilon)

    p = sub.add_parser("complexity-table", parents=[common],
                       help="tabulate epsilon, class counts and slack")
    p.add_argument("--word", required=True)
    p.add_argument("--groups", required=True, help="group spec, read at each n")
    p.add_argument("--n", required=True, help="length or range A..B")
    p.set_defaults(handler=lambda args: _run_table(args, check=False))

    p = sub.add_parser("verify-theorem1", parents=[common],
                       help="check p(n) >= epsilon(G_n)+1 over a range")
    p.add_argument("--word", required=True)
    p.add_argument("--groups", required=True, help="group spec, read at each n")
    p.add_argument("--n", required=True, help="length or range A..B")
    p.set_defaults(handler=lambda args: _run_table(args, check=True))

    p = sub.add_parser("witness", parents=[common],
                       help="abelian witness meeting the bound exactly")
    p.add_argument("--word", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--abelian", required=True, help="Z2xZ4 | [2,4]")
    p.set_defaults(handler=_run_witness)

    p = sub.add_parser("conjugate-witness", parents=[common],
                       help="rebuild a cycle type on interval blocks")
    p.add_argument("--word", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", required=True, help="cycle notation")
    p.set_defaults(handler=_run_conjugate_witness)

    p = sub.add_parser("christoffel", parents=[common],
                       help="sorted cyclic conjugates of 0w1")
    p.add_argument("w", help="central word, e.g. 010010")
    p.set_defaults(handler=_run_christoffel)

    p = sub.add_parser("scan-conjugates", parents=[common],
                       help="class counts over all conjugate subgroups")
    p.add_argument("--word", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", required=True)
    p.set_defaults(handler=_run_scan)

    p = sub.add_parser("fine-wilf", parents=[common],
                       help="interval-exchange data for a length")
    p.add_argument("--word", required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(handler=_run_fine_wilf)

    return parser


#: Lines, or members of a long string list, joined into one ``write``.
BATCH = 64


def _emit(payload: dict, text: list[str], csv_lines: list[str],
          fmt: str, echo: str) -> None:
    write = sys.stdout.write
    if fmt == "structured":
        body = {"format": STRUCTURED_FORMAT, "version": __version__,
                "command": echo}
        body.update(payload)
        for value in body.values():
            if (isinstance(value, list) and len(value) >= BATCH
                    and set(map(type, value)) == {str}):
                # imported only here, so that other reports load no more code
                from .jsonbatch import write_structured
                write_structured(body, write)
                return
        json.dump(body, sys.stdout, sort_keys=True, indent=2)
        print()
        return
    lines = [f"# wordorbits {__version__}", f"# command: {echo}",
             *(text if fmt == "text" else csv_lines)]
    for start in range(0, len(lines), BATCH):
        write("\n".join(lines[start:start + BATCH]))
        write("\n")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    echo = " ".join(argv)
    started = time.perf_counter()
    try:
        code, payload, text, csv_lines = args.handler(args)
    except (ValueError, StabilizationError, GroupSizeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    _emit(payload, text, csv_lines, args.format, echo)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(f"# elapsed: {elapsed_ms:.1f} ms", file=sys.stderr)
    return code


def run() -> None:
    sys.exit(main())


# ---------------------------------------------------------------------------
# structured-output parser (round-trip support)


def parse_structured(text: str) -> FactorSet | OrbitPartition | WitnessReport:
    """Rebuild the value behind a ``factors``, ``orbits`` or ``witness`` report."""
    data = json.loads(text)
    kind = data.get("kind")
    if kind not in ("factors", "orbits", "witness"):
        raise ValueError(f"cannot rebuild a {kind!r} report")
    n = data["n"]
    if kind == "witness":
        partition = BlockPartition(n, tuple(tuple(b) for b in data["blocks"]))
        cycles = tuple(parse_cycles(s, n) for s in data["cycles"])
        return WitnessReport(
            degree=n,
            input_kind=data["input_kind"],
            input_data=tuple(data["input_data"]),
            padded_sizes=tuple(data["padded_sizes"]),
            partition=partition,
            cycles=cycles,
            group=PermGroup(cycles, n),
            epsilon=data["epsilon"],
            classes=tuple(tuple(cls) for cls in data["classes"]),
            passed=data["passed"],
        )
    fs = FactorSet(n, tuple(data["members"]), data["source_prefix_length"],
                   data["provenance"])
    if kind == "factors":
        return fs
    group = PermGroup(tuple(parse_cycles(s, n) for s in data["generators"]), n)
    return OrbitPartition(fs, group, tuple(tuple(cls) for cls in data["classes"]))
