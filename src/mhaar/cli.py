"""Command line interface.

Exit codes: 0 success (witness found / property holds / listing done),
2 the m=2 boundary case (outside the classification, with guidance),
3 a definite negative answer (no witness exists / property fails),
4 capacity refusal (search space or graph size over budget), 1 errors.

Group specs use a small grammar: Cn, Cn^k, Dn, Q8, A4, X27, products
joined with "x" (e.g. C2^2xC4).  Dn is the dihedral group of ORDER n,
so D6 is the symmetries of a triangle.  On the command line only,
--group @FILE loads a multiplication-table JSON instead; a matrix
file's "group" is a spec or a table, never a file name.  Set
MHAAR_MAX_VERTICES to raise the automorphism engine's default
1024-vertex cap.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import Optional

from . import __version__
from .graphs import DEFAULT_BUDGET, CapacityError, read_input

# Each command imports the modules it runs inside its _cmd_ function, so
# a fresh `mhaar` process loads and compiles only those.  Beside cli and
# graphs, oracle-aut loads formats and autos, and no json; verify loads
# groups, cayley and autos; search adds search, plus catalog only for a
# degree-scan witness and report only for --certificate, and no json
# without a file to read or write; synthesize and reverify load report
# and whatever the claim reruns.  No command loads
# dataclasses (the result records are NamedTuples) or multiprocessing,
# nor argparse with its gettext and locale: parse_args reads the
# command line from the one option table, COMMANDS.

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


def _group(spec: str):
    """The group of a --group value: "@FILE" loads a table file, and only
    here, so a matrix file's group string can never name a file."""
    from .groups import load_group, parse_group_spec
    spec = spec.strip()
    return load_group(spec[1:]) if spec.startswith("@") else parse_group_spec(spec)


def _cmd_synthesize(args) -> int:
    from .constructions import synthesize
    from .report import certificate_json, write_certificate
    group = _group(args.group)
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
    from .search import decide_existence
    group = _group(args.group)
    if args.workers < 1:  # unused, but a value below 1 still exits 1
        raise ValueError(f"workers must be >= 1, got {args.workers}")
    rep = decide_existence(group, args.m, mode=args.mode, budget=args.budget)
    print(rep)
    print(f"profiles: {rep.profiles}, examined: {rep.examined}, "
          f"elapsed: {rep.elapsed:.2f}s")
    if rep.exists:
        print(f"witness valencies: {rep.witness.valencies()}")
        if args.out:
            _write_witness(rep.witness, args.out, "json")
    if args.certificate:
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
    text = read_input(path)
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


class Option:
    """One option of a command: a flag when its type is bool, else one
    str or int value.  Its dest is its name without dashes, as argparse
    names it."""

    def __init__(self, name: str, help: str = "", type: type = str, default=None,
                 choices: tuple = (), required: bool = False):
        self.name, self.help, self.type, self.default = name, help, type, default
        self.choices, self.required = choices, required
        self.dest = name.lstrip("-").replace("-", "_")

    def form(self) -> str:
        """The option as usage and help show it, e.g. `--format {json,graph6}`."""
        if self.type is bool:
            return self.name
        value = "{" + ",".join(self.choices) + "}" if self.choices else self.dest.upper()
        return f"{self.name} {value}"


class Command:
    """One command: its help line, its handler (or a table of its
    subcommands), its positionals and its options."""

    def __init__(self, help: str, func, positionals: tuple = (), options: tuple = ()):
        self.help, self.func, self.positionals, self.options = help, func, positionals, options


COMMANDS = {
    "synthesize": Command(
        "decide existence for (group, m) and build a witness", _cmd_synthesize, (), (
            Option("--group", "group spec, e.g. C6, C2^3, D8 (order 8), @table.json",
                   required=True),
            Option("-m", "number of parts", int, required=True),
            Option("--no-verify", "skip verification; no certificate is printed", bool,
                   False),
            Option("--seed", "seed for the random template routes (orders 1 and 2)",
                   int, 0),
            Option("--out", "write the witness to a file"),
            Option("--format", "witness file format (default json)", default="json",
                   choices=("json", "edgelist", "graph6")),
            Option("--certificate", "also write the certificate to a file"))),
    "verify": Command("check a matrix JSON file", _cmd_verify, ("file",), (
        Option("--kind", "property to check (default hgr)", default="hgr",
               choices=("hgr", "pgsr")),)),
    "search": Command(
        "exhaustively decide existence by enumeration", _cmd_search, (), (
            Option("--group", "group spec, as for synthesize", required=True),
            Option("-m", "number of parts", int, required=True),
            Option("--mode", "candidates to enumerate (default normalized)",
                   default="normalized", choices=("normalized", "exhaustive")),
            Option("--budget", "candidate cap before refusing (default 1e8)", int,
                   DEFAULT_BUDGET),
            Option("--workers", "accepted and ignored: the search runs in one process",
                   int, 1),
            Option("--out", "write the witness matrix JSON"),
            Option("--certificate", "write a witness or nonexistence certificate"))),
    "catalog": Command("curated matrices", {
        "list": Command("list entries", _cmd_catalog_list, (), (
            Option("--tag", "only the entries of this group, e.g. C6"),
            Option("--m", "only the entries with this many parts", int),
            Option("--kind", "only the entries of this kind", choices=("hgr", "pgsr")),
            Option("--build", "write the first listed entry as matrix JSON")))}),
    "reverify": Command("re-check a certificate file", _cmd_reverify, ("file",)),
    "oracle-aut": Command(
        "automorphism group of a graph6 or edge-list file", _cmd_oracle_aut, ("file",), (
            Option("--generators", "print the generating permutations", bool, False),)),
}
_MHAAR = Command(__doc__ or "", COMMANDS, (), (  # no docstring under -OO
    Option("--version", "print the version and exit", bool, False),))
_HELP = ("-h", "--help")


def _is_negative_number(tok: str) -> bool:
    r"""argparse's ^-\d+$|^-\d*\.\d+$: such a token is a value, never an option."""
    whole, dot, frac = tok[1:].removesuffix("\n").partition(".")
    return (whole + frac).isdecimal() and bool(frac or not dot)


def _lookup(tok: str, names: tuple) -> Optional[tuple[list, Optional[str]]]:
    """The option names that tok may mean, with its attached value, or
    None when tok is a value.  As argparse reads them: NAME, NAME=VALUE,
    -mVALUE, or a prefix of a long NAME; "-", a negative number, and a
    token with a space that names no option are values, "--" never is."""
    if tok == "--":
        return [], None
    if tok[:1] != "-" or tok == "-" or _is_negative_number(tok):
        return None
    name, eq, value = tok.partition("=")
    if tok in names:
        return [tok], None
    if eq and name in names:
        return [name], value
    if tok[1] != "-":
        found, value = [n for n in names if n == tok[:2]], tok[2:]
    else:
        found = [n for n in names if n.startswith(name)]
        value = value if eq else None
    return None if not found and " " in tok else (found, value)


def _usage(prog: str, cmd: Command) -> str:
    words = [prog, "[-h]"] + [o.form() if o.required else f"[{o.form()}]"
                              for o in cmd.options]
    if isinstance(cmd.func, dict):
        words.append("{" + ",".join(cmd.func) + "} ...")
    return " ".join(words + list(cmd.positionals))


def _help(prog: str, cmd: Command) -> None:
    sections = [("options", [("-h, --help", "print this help and exit")]
                 + [(o.form(), o.help) for o in cmd.options])]
    if isinstance(cmd.func, dict):
        sections.insert(0, ("commands", [(k, c.help) for k, c in cmd.func.items()]))
    text = [f"usage: {_usage(prog, cmd)}", "", cmd.help.strip()]
    for title, rows in sections:
        width = max(len(left) for left, _ in rows)
        text += ["", f"{title}:"] + [f"  {left:<{width}}  {doc}".rstrip()
                                     for left, doc in rows]
    print("\n".join(text))
    raise SystemExit(EXIT_OK)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The attributes argparse gave for argv: `command` (and
    `catalog_command`), `func`, and every dest of the command, with its
    default when not given.  -h/--help and --version print to stdout and
    raise SystemExit(0); a usage error writes its message to stderr and
    raises SystemExit(1).  Options and positionals may come in any
    order, and "--" ends the options."""
    ns, values, seen, extras = SimpleNamespace(), [], set(), []
    prog, cmd, dest = "mhaar", _MHAAR, "command"

    def fail(message: str):
        print(f"usage: {_usage(prog, cmd)}\n{prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)

    tokens = iter(argv)
    for tok in tokens:
        if tok == "--":
            values += tokens
            break
        options = {o.name: o for o in cmd.options}
        names = _HELP + tuple(options)
        hit = _lookup(tok, names)
        if hit is None and isinstance(cmd.func, dict):
            if tok not in cmd.func:
                fail(f"argument {dest}: invalid choice: {tok!r}")
            setattr(ns, dest, tok)
            prog, cmd, dest = f"{prog} {tok}", cmd.func[tok], f"{tok}_command"
            if not isinstance(cmd.func, dict):
                ns.func = cmd.func
                for o in cmd.options:
                    setattr(ns, o.dest, o.default)
            continue
        if hit is None:
            values.append(tok)
            continue
        found, value = hit
        if len(found) > 1:
            fail(f"ambiguous option: {tok} could match {', '.join(found)}")
        if not found:  # reported after the required ones, as argparse does
            extras.append(tok)
            continue
        name = found[0]
        opt = options.get(name)
        if opt is None or opt.type is bool:
            if value is not None:
                fail(f"argument {name}: ignored explicit argument {value!r}")
            if opt is None:
                _help(prog, cmd)
            if name == "--version":
                print(__version__)
                raise SystemExit(EXIT_OK)
            value = True
        else:
            if value is None:
                value = next(tokens, "--")
                if _lookup(value, names) is not None:
                    fail(f"argument {name}: expected one argument")
            try:
                value = opt.type(value)
            except ValueError:
                fail(f"argument {name}: invalid {opt.type.__name__} value: {value!r}")
            if opt.choices and value not in opt.choices:
                fail(f"argument {name}: invalid choice: {value!r} "
                     f"(choose from {', '.join(opt.choices)})")
        seen.add(name)
        setattr(ns, opt.dest, value)
    if isinstance(cmd.func, dict):
        fail(f"the following arguments are required: {dest}")
    missing = [o.name for o in cmd.options if o.required and o.name not in seen]
    missing += cmd.positionals[len(values):]
    if missing:
        fail(f"the following arguments are required: {', '.join(missing)}")
    for name, value in zip(cmd.positionals, values):
        setattr(ns, name, value)
    extras += values[len(cmd.positionals):]
    if extras:
        fail(f"unrecognized arguments: {' '.join(extras)}")
    return ns


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
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
