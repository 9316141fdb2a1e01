"""Command line front end.

Subcommands: realize, check-seq, check-pair, gale-ryser, degree-set,
enumerate.  Exit codes: 0 success, 1 usage or input errors, 2 when a size
limit is exceeded: an oracle size guard, or a set element or declared part
size above sys.maxsize, which cannot size a list or range.
Output is deterministic: identical argv always produces identical stdout.
``realize`` builds no graph: it checks the construction on its layout and
writes ``--out`` and ``--dot`` from it row by row (``write_realization``).
Library names resolve here through the package's name table and are bound
on first use, so a command loads only its own modules and a replacement set
here takes effect.  Every size limit raises the package's ``_SizeLimit``.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import _MODULE_OF, _SizeLimit, _lazy_getattr, _sizable

__all__ = ["cli_main", "main"]

__getattr__ = _lazy_getattr(globals(), __package__, _MODULE_OF)
_lib = sys.modules[__name__]  # the commands call the library through this


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # help wraps at argparse's width without a terminal, whatever COLUMNS
        # says; the subparsers are made by this class, so they share it
        kwargs.setdefault("formatter_class", lambda prog: argparse.HelpFormatter(prog, width=78))
        super().__init__(*args, **kwargs)
        # Values like "-6,-5" must stay values, not option strings; safe
        # because no option here starts with a digit.
        self._negative_number_matcher = re.compile(r"^-\d")

    # argparse exits with status 2 on bad usage, but 2 is reserved for size
    # guards here, so usage problems surface as exceptions instead.
    def error(self, message):
        raise _UsageError(message)


def _ints(text: str) -> list[int]:
    """Parse a comma-separated integer list, tolerating whitespace."""
    tokens = [t.strip() for t in text.split(",")]
    if tokens == [""]:
        raise ValueError("empty integer list")
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise ValueError(f"not a comma-separated integer list: {text!r}") from None


def _word(value: bool) -> str:
    return "true" if value else "false"


def _cmd_realize(args) -> int:
    targets = _ints(args.set)
    for x in targets:
        _sizable(x, "set element")
    # The case and sizes print before any file is opened, so they show even
    # when a file cannot be written; the first call writes nothing and takes
    # time polynomial in the set's length.
    case, p, q = _lib.write_realization(targets)
    print(f"case: {case}")
    print(f"|U|={p} |V|={q}")
    if args.out or args.dot:
        _lib.write_realization(targets, args.out or None, args.dot or None)
    return 0


_SEQUENCE_DECIDERS = {
    "deterministic": "is_s_graphical_deterministic",
    "oracle": "oracle_s_graphical",
}


def _cmd_check_seq(args) -> int:
    decide = getattr(_lib, _SEQUENCE_DECIDERS[args.method])
    print(f"s-graphical: {_word(decide(_ints(args.seq)))}")
    return 0


_PAIR_DECIDERS = {
    "gale-ryser": "is_bipartite_s_graphical",
    "oracle": "oracle_bipartite",
}


def _cmd_check_pair(args) -> int:
    decide = getattr(_lib, _PAIR_DECIDERS[args.method])
    print(f"s-graphical: {_word(decide(_ints(args.alpha), _ints(args.beta)))}")
    return 0


def _cmd_gale_ryser(args) -> int:
    print(f"graphical: {_word(_lib.gale_ryser(_ints(args.d), _ints(args.e)))}")
    return 0


def _cmd_degree_set(args) -> int:
    if args.infile == "-":
        degrees, connected = _lib.read_degree_set(sys.stdin)
    else:
        with open(args.infile) as infile:
            degrees, connected = _lib.read_degree_set(infile)
    print("degree set: " + ",".join(str(x) for x in sorted(degrees)))
    print(f"connected: {_word(connected)}")
    return 0


def _cmd_enumerate(args) -> int:
    for degree_set in _lib.connected_degree_sets(args.p, args.q):
        print(",".join(str(x) for x in degree_set))
    return 0


_DESCRIPTION = (
    "Build a connected signed bipartite graph for a signed degree set (realize), "
    "decide signed degree sequences and pairs (check-seq, check-pair, gale-ryser), "
    "report the degree set of a graph file (degree-set) and list the degree sets "
    "of small graphs (enumerate).  Exit codes: 0 success, 1 usage or input error, "
    "2 size limit exceeded.  Identical arguments always give identical output."
)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="sdegree", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)

    realize = sub.add_parser(
        "realize", help="construct a connected graph with a prescribed signed degree set"
    )
    realize.add_argument("--set", required=True, help="comma-separated integers")
    realize.add_argument("--out", help="write the edge-list document to this file")
    realize.add_argument("--dot", help="write DOT output to this file")
    realize.set_defaults(func=_cmd_realize)

    check_seq = sub.add_parser("check-seq", help="decide a signed degree sequence")
    check_seq.add_argument("--seq", required=True, help="comma-separated integers")
    check_seq.add_argument("--method", choices=tuple(_SEQUENCE_DECIDERS), default="deterministic")
    check_seq.set_defaults(func=_cmd_check_seq)

    check_pair = sub.add_parser(
        "check-pair", help="decide a bipartite signed degree sequence pair"
    )
    check_pair.add_argument("--alpha", required=True, help="U-side sequence")
    check_pair.add_argument("--beta", required=True, help="V-side sequence")
    check_pair.add_argument("--method", choices=tuple(_PAIR_DECIDERS), default="gale-ryser")
    check_pair.set_defaults(func=_cmd_check_pair)

    ryser = sub.add_parser("gale-ryser", help="test an unsigned bipartite degree pair")
    ryser.add_argument("--d", required=True, help="non-increasing non-negative integers")
    ryser.add_argument("--e", required=True, help="non-negative integers")
    ryser.set_defaults(func=_cmd_gale_ryser)

    degree_set = sub.add_parser(
        "degree-set", help="report the signed degree set of an edge-list document"
    )
    degree_set.add_argument(
        "--in", dest="infile", required=True, help="edge-list file, or - for stdin"
    )
    degree_set.set_defaults(func=_cmd_degree_set)

    enum = sub.add_parser(
        "enumerate", help="list all realizable connected degree sets at a given size"
    )
    enum.add_argument("--p", type=int, required=True)
    enum.add_argument("--q", type=int, required=True)
    enum.add_argument(
        "--sets", action="store_true", required=True, help="list degree sets (the only mode)"
    )
    enum.set_defaults(func=_cmd_enumerate)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    """Run one command and return the process exit code (never exits itself)."""
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as done:  # --help printed the usage and asked to exit
        return done.code
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ParseError and _SizeLimit are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _SizeLimit) else 1


def main() -> None:
    raise SystemExit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
