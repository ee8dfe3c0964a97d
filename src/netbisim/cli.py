"""Command-line interface.

Exit codes: 0 equivalent, 1 not-equivalent, 2 unknown, 3 runtime error
(bad input, bound exceeded, or an internal error, whose traceback goes to
stderr), 64 usage error.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from collections import Counter

from .nets import NetError, NetSystem, reachable
from .indexed import im_space, initial_indexed, reachable_im
from .ordered import oim_space, reachable_oim
from .certificates import format_refutation, format_witness
from .engine import Limits, decide_interleaving, decide_oim, decide_oimc
from .netio import (
    ParseError, export_im_dot, export_oim_dot, export_reachability_dot,
    parse_net,
)
from .oracle import oracle_game
from . import randnets

EXIT_EQUIV = 0
EXIT_NOT_EQUIV = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3
EXIT_USAGE = 64

_OUTCOME_CODE = {
    "equivalent": EXIT_EQUIV,
    "not-equivalent": EXIT_NOT_EQUIV,
    "unknown": EXIT_UNKNOWN,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="netbisim", description=__doc__)
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for corpus runs")
    sub = parser.add_subparsers(dest="command", required=True,
                               parser_class=_Parser)

    check = sub.add_parser("check",
                           help="decide equivalence of two markings")
    check.add_argument("--equiv", choices=["fc", "cn", "il"], required=True)
    check.add_argument("--cap", type=int, default=16)
    check.add_argument("--witness", metavar="OUT",
                       help="write the witness or refutation to a file")
    check.add_argument("--max-triples", type=int, metavar="N",
                       help="give up (exit 2) after exploring N triples "
                            "(fc and cn only)")
    check.add_argument("--max-seconds", type=float, metavar="S",
                       help="give up (exit 2) after S seconds (fc and cn "
                            "only)")
    check.add_argument("net")
    check.add_argument("m1")
    check.add_argument("m2")

    oracle = sub.add_parser("oracle",
                            help="play the process-based game")
    oracle.add_argument("--flavor", choices=["fc", "cn"], required=True)
    oracle.add_argument("--depth", type=int, required=True)
    oracle.add_argument("net")
    oracle.add_argument("m1")
    oracle.add_argument("m2")

    explore = sub.add_parser("explore",
                             help="explore a state space")
    explore.add_argument("--what", choices=["markings", "im", "oim"],
                         required=True)
    explore.add_argument("--cap", type=int, default=16)
    explore.add_argument("--dot", metavar="OUT",
                         help="write the graph in DOT format")
    explore.add_argument("net")
    explore.add_argument("marking")

    bound = sub.add_parser("bound",
                           help="verify boundedness and print the least bound")
    bound.add_argument("--cap", type=int, required=True)
    bound.add_argument("net")
    bound.add_argument("marking")

    corpus = sub.add_parser("corpus",
                            help="run the random oracle-agreement suite")
    corpus.add_argument("--count", type=int, default=200)
    corpus.add_argument("--depth", type=int, default=5)
    return parser


def _load(path: str, *marking_names: str):
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:  # bad input, not an internal error
            raise NetError(f"{path}: {exc}") from None
    doc = parse_net(text)
    markings = []
    for name in marking_names:
        if name not in doc.markings:
            raise NetError(f"net {doc.name!r} has no marking {name!r}")
        markings.append(doc.markings[name])
    return (doc, *markings)


def _cmd_check(args) -> int:
    doc, m1, m2 = _load(args.net, args.m1, args.m2)
    if args.equiv == "il":
        verdict = decide_interleaving(doc.net, m1, m2, args.cap)
    else:
        limits = Limits(max_seconds=args.max_seconds)
        if args.max_triples is not None:
            limits.max_triples = args.max_triples
        if not (limits.max_triples >= 0 and (limits.max_seconds or 0) >= 0):
            raise NetError("--max-triples and --max-seconds must be >= 0")
        decide = decide_oim if args.equiv == "fc" else decide_oimc
        verdict = decide(doc.net, m1, m2, args.cap, limits)
    print(verdict.outcome)
    _report_limit(verdict)
    if args.witness:
        if verdict.witness is not None:
            text = format_witness(verdict.witness)
        elif verdict.refutation is not None:
            text = format_refutation(verdict.refutation)
        else:
            text = verdict.outcome + "\n"
        with open(args.witness, "w", encoding="utf-8") as fh:
            fh.write(text)
    return _OUTCOME_CODE[verdict.outcome]


def _report_limit(verdict) -> None:
    if "limit" in verdict.stats:
        print(f"limit reached: {verdict.stats['limit']}", file=sys.stderr)


def _cmd_oracle(args) -> int:
    doc, m1, m2 = _load(args.net, args.m1, args.m2)
    verdict = oracle_game(doc.net, m1, m2, args.flavor, args.depth)
    print(verdict.outcome)
    _report_limit(verdict)
    return _OUTCOME_CODE[verdict.outcome]


# --what -> (name, explorer, explorer with each state's steps, DOT export)
_INDEXED_SPACES = {
    "im": ("indexed markings", reachable_im, im_space, export_im_dot),
    "oim": ("ordered indexed markings", reachable_oim, oim_space,
            export_oim_dot),
}


def _cmd_explore(args) -> int:
    doc, m = _load(args.net, args.marking)
    net = doc.net
    kernel = net.kernel
    succ = kernel.explore((m,), args.cap)  # the bound check comes first
    if args.what == "markings":
        print(f"markings {len(succ)}")
        if args.dot:
            markings = {x: kernel.decode(x) for x in succ}
            edges = [(markings[x], net.transitions[t].tid, markings[y])
                     for x, out in succ.items() for t, y in out]
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(export_reachability_dot(markings.values(), edges))
    else:
        noun, explore, space, export = _INDEXED_SPACES[args.what]
        states = (space if args.dot else explore)(
            net, initial_indexed(m), args.cap)
        print(f"{noun} {len(states)}")
        if args.dot:
            steps = [(x, s) for x, out in states.items() for s in out]
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(export(states, steps))
    return EXIT_EQUIV


def _cmd_bound(args) -> int:
    doc, m = _load(args.net, args.marking)
    result = reachable(NetSystem(doc.net, m), args.cap)
    print(result.least_bound)
    return EXIT_EQUIV


def _cmd_corpus(args) -> int:
    if args.count < 0:
        raise NetError("count must be >= 0")
    config = randnets.CorpusConfig()
    tally: Counter[str] = Counter()  # "flavor:oracle outcome" -> instances
    disagreements = 0
    for i, (net, m1, m2) in enumerate(
            randnets.corpus(args.seed, args.count, config)):
        for flavor, decide in (("fc", decide_oim), ("cn", decide_oimc)):
            oracle = oracle_game(net, m1, m2, flavor, args.depth)
            tally[f"{flavor}:{oracle.outcome}"] += 1
            if oracle.outcome == "unknown":
                continue
            mine = decide(net, m1, m2, config.bound)
            if mine.outcome != oracle.outcome:
                disagreements += 1
                print(f"disagreement on instance {i} ({flavor}): "
                      f"engine={mine.outcome} oracle={oracle.outcome}")
                print(f"  net: {net}")
                print(f"  m1={m1}  m2={m2}")
    for key in sorted(tally):
        print(f"{key}: {tally[key]}")
    print(f"checked {args.count} instances, {disagreements} disagreements")
    return EXIT_EQUIV if disagreements == 0 else EXIT_NOT_EQUIV


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "check" and args.equiv == "il" and (
                args.max_triples is not None or args.max_seconds is not None):
            parser.error("--max-triples and --max-seconds need --equiv fc "
                         "or cn")
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    handler = {
        "check": _cmd_check,
        "oracle": _cmd_oracle,
        "explore": _cmd_explore,
        "bound": _cmd_bound,
        "corpus": _cmd_corpus,
    }[args.command]
    try:
        return handler(args)
    except (NetError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception:  # not 1, which would read as not-equivalent
        traceback.print_exc()
        return EXIT_ERROR


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
