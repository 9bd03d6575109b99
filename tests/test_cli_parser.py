"""The command-line parser against an argparse reference built from the
same option table, over every argv that the tests, the CI smoke step and
the benchmark workloads run, plus the forms and errors argparse knows."""

import argparse
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mhaar
from mhaar import cli

ROOT = Path(__file__).resolve().parent.parent

# a stand-in for an argument the tests compute (a path, a group, an m):
# every option and positional that takes a value accepts it
PLACEHOLDER = "3"

EXTRA = [
    # long forms, prefixes, attached values and negative numbers
    "search --group=C4 -m 3", "search --gr C4 -m3", "search --group C4 -m=3",
    "synthesize --group C6 -m 3 --cert FILE", "synthesize --group C6 -m 3 --no",
    "oracle-aut FILE --gen", "oracle-aut --generators FILE",
    "verify --kind=pgsr FILE", "verify FILE --k pgsr",
    "search --group C1 -m 11 --budget -5", "synthesize --group C2 -m 400 --seed -1",
    "search --group C4 -m -3", "search --group C4 -m 3 --budget -.5",
    "search --group C4 -m 3 --workers 2 --mode exhaustive --out W --certificate C",
    "search --group C4 -m 3 --mo exhaustive --w 2 --b 10", "search --group C4 --m 3",
    "synthesize --group C6 --m 3",
    "catalog list --tag C6 --kind pgsr --m 3 --build FILE", "catalog list --m=3",
    "synthesize -m 3 --group C6 --seed 7 --out W --format graph6",
    "verify -- -file.json", "oracle-aut FILE --",
    # usage errors
    "search -m 3 --group", "search --group C6 -m 3 --count-all", "search --group C6",
    "synthesize --group C6 -m abc", "synthesize --group C6 -mabc",
    "synthesize --group C6 -m 3 --format xml", "synthesize --group C6 -m 3 --no-verify=1",
    "synthesize --group -x -m 3", "synthesize --group C6 -m 3 extra",
    "verify a.json b.json", "verify", "reverify", "oracle-aut --generators",
    "", "catalog", "catalog lists", "catalog list extra", "frobnicate", "-- verify FILE",
    "--foo synthesize --group C6 -m 3", "synthesize --version", "--version=1",
    "search --group C6 -m 3 --mode", "search --group C6 -m 3 --budget 1e8",
    # help and version at every level, also after an error that argparse reports late
    "--help", "-h", "--he", "--version", "--vers", "--version synthesize",
    "catalog --help", "catalog list -h", "synthesize --count-all --help",
    "synthesize -h --group C6 -m abc",
] + [f"{name} --help" for name in cli.COMMANDS]


def reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mhaar")
    parser.add_argument("--version", action="version", version=mhaar.__version__)
    add_commands(parser, cli.COMMANDS, "command")
    return parser


def add_commands(parser, table, dest) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, command in table.items():
        p = sub.add_parser(name, help=command.help)
        if isinstance(command.func, dict):
            add_commands(p, command.func, f"{name}_command")
            continue
        for positional in command.positionals:
            p.add_argument(positional)
        for o in command.options:
            if o.type is bool:
                p.add_argument(o.name, dest=o.dest, action="store_true", help=o.help)
            else:
                p.add_argument(o.name, dest=o.dest, type=o.type, default=o.default,
                               choices=o.choices or None, required=o.required,
                               help=o.help)
        p.set_defaults(func=command.func)


def argv_in_test_cli() -> list[list[str]]:
    """Every argv that tests/test_cli.py passes to `run`, `fresh`,
    `loaded_modules` or `main`, and every tuple or list literal there that
    starts with a command name.  A computed argument becomes PLACEHOLDER;
    a starred one is expanded when it names an entry of a module-level
    constant, and otherwise the call is left out (its argv are literals
    elsewhere in the file)."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    constants = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            try:
                constants[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                pass

    def words(node) -> list:
        if isinstance(node, ast.Constant):
            return [node.value if isinstance(node.value, str) else None]
        if isinstance(node, ast.JoinedStr):
            return ["".join(part.value if isinstance(part, ast.Constant) else PLACEHOLDER
                            for part in node.values)]
        if isinstance(node, (ast.Name, ast.Call, ast.Attribute)):
            return [PLACEHOLDER]
        value = getattr(node, "value", None)
        if (isinstance(node, ast.Starred) and isinstance(value, ast.Subscript)
                and isinstance(value.value, ast.Name) and value.value.id in constants
                and isinstance(value.slice, ast.Constant)):
            return list(constants[value.value.id][value.slice.value])
        return [None]

    found = []
    for node in ast.walk(tree):
        args = []
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "run":
                args = node.args[1:]
            elif node.func.id in ("fresh", "loaded_modules"):
                args = node.args
            elif node.func.id == "main" and node.args and isinstance(node.args[0], ast.List):
                args = node.args[0].elts
        elif (isinstance(node, (ast.Tuple, ast.List)) and node.elts
              and isinstance(node.elts[0], ast.Constant)
              and node.elts[0].value in cli.COMMANDS):
            args = node.elts
        argv = [word for arg in args for word in words(arg)]
        if argv and None not in argv:
            found.append(argv)
    return found


def ci_argv() -> list[list[str]]:
    """The argv of every `check CODE ARGV` line of the CI smoke step."""
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    return [line.split()[2:] for line in text.splitlines()
            if re.match(r"\s*check \d+ ", line)]


def workload_argv(tmp_path, monkeypatch) -> list[list[str]]:
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads
    return [cmd.argv for workload in workloads.WORKLOADS
            for cmd in workloads.make_pass_factory(workload, 0, tmp_path)(tmp_path)]


def outcome(parse, argv, capsys):
    """("args", attributes) or ("exit", 0 for help/version, 1 for a usage
    error), with what the parser wrote."""
    try:
        result = ("args", vars(parse(argv)))
    except SystemExit as e:
        result = ("exit", 1 if e.code else 0)
    return result, capsys.readouterr()


def test_parser_matches_the_argparse_reference(tmp_path, monkeypatch, capsys):
    corpora = {
        "test_cli": argv_in_test_cli(),
        "ci": ci_argv(),
        "workloads": workload_argv(tmp_path, monkeypatch),
        "extra": [line.split() for line in EXTRA],
    }
    # each source holds dozens of argv, so a broken reader cannot pass
    assert min(len(corpus) for corpus in corpora.values()) >= 30
    reference = reference_parser()
    checked = set()
    for source, corpus in corpora.items():
        for argv in corpus:
            if tuple(argv) in checked:
                continue
            checked.add(tuple(argv))
            want, _ = outcome(reference.parse_args, argv, capsys)
            got, written = outcome(cli.parse_args, argv, capsys)
            assert got == want, (source, argv)
            if got == ("exit", 1):
                assert written.out == "" and "error: " in written.err, argv
            elif got == ("exit", 0):
                assert written.out and written.err == "", argv
    assert len(checked) > 200


def help_text(capsys, *argv) -> str:
    with pytest.raises(SystemExit) as exc:
        cli.parse_args([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_help_lists_every_command_and_option(capsys):
    text = help_text(capsys)
    assert re.search(r"^  --version +print the version and exit$", text, re.M)
    for name, command in cli.COMMANDS.items():
        assert re.search(rf"^  {name} +{re.escape(command.help)}$", text, re.M)
    leaves = [((name,), command) for name, command in cli.COMMANDS.items()
              if name != "catalog"]
    leaves.append((("catalog", "list"), cli.COMMANDS["catalog"].func["list"]))
    for argv, command in leaves:
        text = help_text(capsys, *argv)
        assert text.startswith(f"usage: mhaar {' '.join(argv)} [-h] ")
        for o in command.options:
            assert re.search(rf"^  {re.escape(o.form())} *{re.escape(o.help)}$",
                             text, re.M), (argv, o.name)
    assert "  list  list entries" in help_text(capsys, "catalog")


def test_top_level_help_without_docstrings():
    # under -OO the module docstring that heads the top-level help is None
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-OO", "-m", "mhaar", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "  oracle-aut  automorphism group" in proc.stdout
