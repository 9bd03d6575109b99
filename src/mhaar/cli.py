"""Command line interface.

Exit codes: 0 success (witness found / property holds / listing done),
2 the m=2 boundary case (outside the classification, with guidance),
3 a definite negative answer (no witness exists / property fails),
4 capacity refusal (search space or graph size over budget), 1 errors.

Group specs use a small grammar: Cn, Cn^k, Dn, Q8, A4, X27, products
joined with "x" (e.g. C2^2xC4), or @FILE to load a multiplication-table
JSON.  Dn is the dihedral group of ORDER n, so D6 is the symmetries of
a triangle.  Set MHAAR_MAX_VERTICES to raise the automorphism engine's
default 1024-vertex cap.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import __version__
from .graphs import CapacityError

# Each command imports the modules it runs inside its _cmd_ function, so
# a fresh `mhaar` process loads and compiles only those.  Beside cli and
# graphs, oracle-aut loads formats and autos, and no json; verify loads
# groups, cayley and autos; search adds search, plus catalog only for a
# degree-scan witness and report only for --certificate, and no json
# without a file to read or write; synthesize and reverify load report
# and whatever the claim reruns.  No command loads
# dataclasses (the result records are NamedTuples) or multiprocessing.

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BOUNDARY = 2
EXIT_NEGATIVE = 3
EXIT_CAPACITY = 4


def _write_witness(cm, path: str, fmt: str) -> None:
    import json

    from .cayley import build_graph
    from .formats import to_edgelist, to_graph6
    if fmt == "json":
        payload = json.dumps(cm.to_json(), indent=2) + "\n"
    elif fmt == "edgelist":
        payload = to_edgelist(build_graph(cm))
    else:
        payload = to_graph6(build_graph(cm)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
    print(f"witness written to {path} ({fmt})", file=sys.stderr)


def _cmd_synthesize(args) -> int:
    from .constructions import synthesize
    from .groups import parse_group_spec
    from .report import certificate_json, write_certificate
    group = parse_group_spec(args.group)
    if args.m == 2:
        print("m=2 is outside the classification this tool mechanizes; "
              "the exhaustive search can decide individual cases:", file=sys.stderr)
        print(f"  mhaar search --group {args.group!r} -m 2", file=sys.stderr)
        return EXIT_BOUNDARY
    res = synthesize(group, args.m, verify=not args.no_verify, seed=args.seed)
    print(res, file=sys.stderr)
    text = None
    if res.exists:
        cm = res.matrix
        print(f"parts: {cm.m}, vertices: {cm.m * group.order}, "
              f"valencies: {cm.valencies()}", file=sys.stderr)
    if res.exists and args.no_verify:
        print("verification skipped, no certificate emitted", file=sys.stderr)
    else:
        text = certificate_json(res)
        sys.stdout.write(text)
    if res.exists and args.out:
        _write_witness(cm, args.out, args.format)
    if args.certificate and text is None:
        print(f"certificate not written to {args.certificate}: verification skipped",
              file=sys.stderr)
    elif args.certificate:
        write_certificate(text, args.certificate)
        print(f"certificate written to {args.certificate}", file=sys.stderr)
    return EXIT_OK if res.exists else EXIT_NEGATIVE


def _cmd_verify(args) -> int:
    from .autos import is_m_hgr, is_m_pgsr
    from .cayley import is_m_haar, load_matrix
    cm = load_matrix(args.file)
    g = cm.group
    print(f"matrix over {g.label}, m={cm.m}, valencies {cm.valencies()}")
    haar = is_m_haar(cm)
    print(f"diagonal-free and regular: {'yes' if haar else 'no (' + haar.reason + ')'}")
    verdict = is_m_pgsr(cm) if args.kind == "pgsr" else is_m_hgr(cm)
    tag = "PGSR" if args.kind == "pgsr" else "HGR"
    if verdict:
        print(f"|Aut| = {verdict.aut_order} = |G|")
        print(f"verdict: {cm.m}-{tag} of {g.label}")
        return EXIT_OK
    print(f"verdict: not a {cm.m}-{tag}: {verdict.reason}")
    return EXIT_NEGATIVE


def _cmd_search(args) -> int:
    from .groups import parse_group_spec
    from .search import decide_existence
    group = parse_group_spec(args.group)
    if args.workers < 1:  # unused, but a value below 1 still exits 1
        raise ValueError(f"workers must be >= 1, got {args.workers}")
    rep = decide_existence(group, args.m, mode=args.mode, budget=args.budget,
                           early_exit=not args.count_all)
    print(rep)
    print(f"profiles: {rep.profiles}, examined: {rep.examined}, "
          f"elapsed: {rep.elapsed:.2f}s")
    if rep.exists:
        print(f"witness valencies: {rep.witness.valencies()}")
        if args.out:
            _write_witness(rep.witness, args.out, "json")
    if args.certificate and (rep.exists or rep.exhausted):
        from .report import certificate_json, write_certificate
        write_certificate(certificate_json(rep), args.certificate)
        print(f"certificate written to {args.certificate}")
    return EXIT_OK if rep.exists else EXIT_NEGATIVE


def _cmd_catalog_list(args) -> int:
    from .catalog import build_entry, entries
    found = entries(tag=args.tag, m=args.m, kind=args.kind)
    for e in found:
        print(e)
    print(f"{len(found)} entries")
    if args.build is not None:
        if not found:
            print("nothing to build", file=sys.stderr)
            return EXIT_ERROR
        cm = build_entry(found[0])
        _write_witness(cm, args.build, "json")
    return EXIT_OK


def _cmd_reverify(args) -> int:
    from .report import load_certificate, reverify
    check = reverify(load_certificate(args.file))
    print(check)
    return EXIT_OK if check else EXIT_NEGATIVE


def _load_graph(path: str):
    from .formats import from_edgelist, from_graph6
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("p "):
            return from_edgelist(text)
        return from_graph6(line)
    raise ValueError(f"no graph found in {path}")


def _cmd_oracle_aut(args) -> int:
    from .autos import BRUTE_FORCE_LIMIT, automorphism_group, brute_force_aut_order
    graph = _load_graph(args.file)
    aut = automorphism_group(graph)
    print(f"graph: {graph.n} vertices, {graph.edge_count()} edges")
    print(f"|Aut| = {aut.order}")
    print(f"orbits: {len(aut.orbits)}")
    print(f"generators: {len(aut.generators)}")
    if graph.n <= BRUTE_FORCE_LIMIT:
        brute = brute_force_aut_order(graph)
        agree = "agree" if brute == aut.order else "DISAGREE"
        print(f"brute-force cross-check: {brute} ({agree})")
        if brute != aut.order:
            return EXIT_ERROR
    else:
        print("brute-force cross-check skipped "
              f"(needs <= {BRUTE_FORCE_LIMIT} vertices)")
    if args.generators:
        for p in aut.generators:
            print(" ".join(map(str, p)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhaar",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize",
                       help="decide existence for (group, m) and build a witness")
    p.add_argument("--group", required=True,
                   help="group spec, e.g. C6, C2^3, D8 (order 8), @table.json")
    p.add_argument("-m", type=int, required=True, dest="m",
                   help="number of parts")
    p.add_argument("--no-verify", action="store_true",
                   help="skip verification; no certificate is printed")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random template routes (orders 1 and 2)")
    p.add_argument("--out", metavar="FILE", help="write the witness to a file")
    p.add_argument("--format", choices=("json", "edgelist", "graph6"),
                   default="json", help="witness file format (default json)")
    p.add_argument("--certificate", metavar="FILE",
                   help="also write the certificate to a file")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("verify", help="check a matrix JSON file")
    p.add_argument("file")
    p.add_argument("--kind", choices=("hgr", "pgsr"), default="hgr",
                   help="property to check (default hgr)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search",
                       help="exhaustively decide existence by enumeration")
    p.add_argument("--group", required=True)
    p.add_argument("-m", type=int, required=True, dest="m")
    p.add_argument("--mode", choices=("normalized", "exhaustive"),
                   default="normalized")
    p.add_argument("--budget", type=int, default=10 ** 8,
                   help="candidate cap before refusing (default 1e8)")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted and ignored: the search runs in one process")
    p.add_argument("--count-all", action="store_true",
                   help="keep searching past the first witness")
    p.add_argument("--out", metavar="FILE", help="write the witness matrix JSON")
    p.add_argument("--certificate", metavar="FILE",
                   help="write a witness or nonexistence certificate")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("catalog", help="curated matrices")
    csub = p.add_subparsers(dest="catalog_command", required=True)
    pl = csub.add_parser("list", help="list entries")
    pl.add_argument("--tag")
    pl.add_argument("--m", type=int)
    pl.add_argument("--kind", choices=("hgr", "pgsr"))
    pl.add_argument("--build", metavar="FILE",
                    help="write the first listed entry as matrix JSON")
    pl.set_defaults(func=_cmd_catalog_list)

    p = sub.add_parser("reverify", help="re-check a certificate file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_reverify)

    p = sub.add_parser("oracle-aut",
                       help="automorphism group of a graph6 or edge-list file")
    p.add_argument("file")
    p.add_argument("--generators", action="store_true",
                   help="print the generating permutations")
    p.set_defaults(func=_cmd_oracle_aut)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # a usage error; --help and --version exit 0
        if e.code:
            return EXIT_ERROR
        raise
    try:
        return args.func(args)
    except CapacityError as e:
        print(f"capacity: {e}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, OSError) as e:  # GroupError, CayleyError, LiftError too
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
