"""The three benchmark workloads: seeded inputs and the commands of one pass.

Every command carries the outcome the gate expects (see gate.py).  The
expected values come from closed forms computed here, never from the
program under test: group orders from the spec grammar, |Aut| of the
oracle graphs from their structure.
"""

from __future__ import annotations

import itertools
import random
import re
from math import factorial
from pathlib import Path

from gate import Cmd

# Witness cases for `synthesize`, one per witness route:
#   C2^5/4      generic rank-5 recipe (rank >= 4)
#   C2^4xC3/8   chain extension of a generic rank-4 base; 384 vertices,
#               rank search and refinement dominate
#   C7xC7/9     chain extension of a generic 2-generated 3-part base
#   X27/12      chain extension of a catalog base
#   C2/400      asymmetric regular template, 800 vertices
#   C1/60       asymmetric regular template over the trivial group
#   D8xC3/6     chain extension of a 2-generated 4-part base
#   A4/5        chain extension of a catalog partial base
#   Q8/3        generic 2-generated recipe
SYNTH_WITNESSES = [("C2^5", 4), ("C2^4xC3", 8), ("C7xC7", 9), ("X27", 12),
                   ("C2", 400), ("C1", 60), ("D8xC3", 6), ("A4", 5), ("Q8", 3)]
# classified negatives: exit 3 with a nonexistence certificate
SYNTH_NEGATIVES = [("D6", 3), ("C2", 5)]

# searched nonexistence, normalized mode, with certificates
SEARCH_NORMALIZED = [("D6", 3), ("C3", 4), ("C5", 3), ("C2", 5), ("C2^2", 3),
                     ("C4", 3)]
# m = 2 cases, outside the classification
SEARCH_M2 = [("C10", 2), ("D8", 2)]
# certificates re-derived by `reverify` (the two smallest searches)
SEARCH_REVERIFIED = [("C2^2", 3), ("C4", 3)]

VERIFIES = re.escape("certificate verifies")

_FIXED_ORDERS = {"Q8": 8, "A4": 12, "X27": 27}


def group_order(spec: str) -> int:
    """|G| for a spec in the CLI grammar (Cn, Cn^k, Dn, Q8, A4, X27, x)."""
    order = 1
    for token in spec.split("x"):
        token = token.strip()
        if token in _FIXED_ORDERS:
            order *= _FIXED_ORDERS[token]
        elif token.startswith("D"):
            order *= int(token[1:])
        else:
            base, _, exp = token[1:].partition("^")
            order *= int(base) ** int(exp or 1)
    return order


def _tag(spec: str, m: int) -> str:
    return f"{spec.replace('^', '')}_{m}"


def synthesize_pass(d: Path, seed: int) -> list[Cmd]:
    cmds = []
    for spec, m in SYNTH_WITNESSES:
        cert, wit = d / f"cert_{_tag(spec, m)}.json", d / f"wit_{_tag(spec, m)}.json"
        order = group_order(spec)
        cmds.append(Cmd(["synthesize", "--group", spec, "-m", str(m),
                         "--seed", str(seed), "--certificate", str(cert),
                         "--out", str(wit)],
                        rc=0, cert_kind="hgr", cert_aut_order=order))
        cmds.append(Cmd(["verify", str(wit)], rc=0,
                        lines=[re.escape(f"|Aut| = {order} = |G|"),
                               re.escape(f"verdict: {m}-HGR of {spec}")]))
        cmds.append(Cmd(["reverify", str(cert)], rc=0, lines=[VERIFIES]))
    for spec, m in SYNTH_NEGATIVES:
        # `synthesize --certificate FILE` does not write FILE on exit 3,
        # so the certificate is taken from stdout for `reverify`
        saved = d / f"neg_{_tag(spec, m)}.json"
        cmds.append(Cmd(["synthesize", "--group", spec, "-m", str(m),
                         "--seed", str(seed), "--certificate",
                         str(d / f"negfile_{_tag(spec, m)}.json")],
                        rc=3, cert_kind="nonexistence-classified",
                        save_stdout=saved))
        cmds.append(Cmd(["reverify", str(saved)], rc=0, lines=[VERIFIES]))
    return cmds


def search_pass(d: Path) -> list[Cmd]:
    # `search` takes no seed and its inputs are group names, so this
    # workload is the same for every seed
    none = [r".*: none exist", r"profiles: \d+, examined: \d+, elapsed: .*"]
    cmds = [Cmd(["search", "--group", spec, "-m", str(m),
                 "--certificate", str(d / f"s_{_tag(spec, m)}.json")],
                rc=3, lines=none)
            for spec, m in SEARCH_NORMALIZED]
    cmds += [Cmd(["search", "--group", spec, "-m", str(m)], rc=3, lines=none)
             for spec, m in SEARCH_M2]
    cmds.append(Cmd(["search", "--group", "C2^2", "-m", "3",
                     "--mode", "exhaustive"], rc=3, lines=none))
    # the trivial group's degree scan over regular graphs
    cmds.append(Cmd(["search", "--group", "C1", "-m", "9"], rc=3, lines=none))
    # the multiprocessing path (2 workers = the core count of the
    # reference machine), beside the serial D6/3 above
    cmds.append(Cmd(["search", "--group", "D6", "-m", "3", "--workers", "2"],
                    rc=3, lines=none))
    cmds += [Cmd(["reverify", str(d / f"s_{_tag(spec, m)}.json")], rc=0,
                 lines=[VERIFIES])
             for spec, m in SEARCH_REVERIFIED]
    return cmds


# -- oracle graphs ---------------------------------------------------------------


def graph6(n: int, edges) -> str:
    """graph6 text: size header, then the upper triangle column by column."""
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (u, v) in adj else 0 for v in range(n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    head = [n + 63] if n <= 62 else [126, (n >> 12) + 63, (n >> 6 & 63) + 63,
                                     (n & 63) + 63]
    body = [int("".join(map(str, bits[k:k + 6])), 2) + 63
            for k in range(0, len(bits), 6)]
    return bytes(head + body).decode("ascii") + "\n"


def edgelist(n: int, edges) -> str:
    """The CLI's edge-list text: a 'p <n> <m>' header, then 'u v' lines."""
    pairs = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return "".join([f"p {n} {len(pairs)}\n"] + [f"{u} {v}\n" for u, v in pairs])


def _petersen(offset: int = 0) -> list[tuple[int, int]]:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return [(u + offset, v + offset) for u, v in outer + spokes + inner]


def rigid_graph(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """A G(n, p) sample whose automorphism group is provably trivial.

    Samples are redrawn until every vertex has a distinct pair (degree,
    sorted neighbour degrees).  Any automorphism preserves that pair, so
    it must fix every vertex.
    """
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        nbrs = [[] for _ in range(n)]
        for u, v in edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        sig = {(len(nb), tuple(sorted(len(nbrs[w]) for w in nb))) for nb in nbrs}
        if len(sig) == n:
            return edges


def oracle_graphs(seed: int) -> list[tuple[str, int, list, int, str]]:
    """(name, n, edges, |Aut|, format) for every oracle input.

    The seed relabels the structured graphs and draws the rigid ones;
    |Aut| is invariant under relabelling, so the expected values are
    closed forms.
    """
    rng = random.Random(seed)
    q7 = [(v, v ^ 1 << b) for v in range(128) for b in range(7) if v < v ^ 1 << b]
    rook = [((r1, c1), (r2, c2)) for r1, c1, r2, c2
            in itertools.product(range(3), repeat=4)
            if (r1, c1) < (r2, c2) and (r1 == r2 or c1 == c2)]
    rook = [(3 * a + b, 3 * c + e) for (a, b), (c, e) in rook]
    structured = [
        ("empty36", 36, [], factorial(36)),
        ("k30", 30, list(itertools.combinations(range(30), 2)), factorial(30)),
        ("k12_13", 25, [(i, 12 + j) for i in range(12) for j in range(13)],
         factorial(12) * factorial(13)),
        ("petersen4", 40, [e for k in range(4) for e in _petersen(10 * k)],
         120 ** 4 * factorial(4)),
        ("q7", 128, q7, 2 ** 7 * factorial(7)),
        ("petersen", 10, _petersen(), 120),
        # 9 vertices: the CLI cross-checks it by brute force
        ("rook3x3", 9, rook, 72),
    ]
    out = []
    for name, n, edges, aut in structured:
        perm = list(range(n))
        rng.shuffle(perm)
        out.append((name, n, [(perm[u], perm[v]) for u, v in edges], aut, "g6"))
    for n, p in ((200, 0.1), (400, 0.05)):
        edges = rigid_graph(n, p, rng)
        out.append((f"rigid{n}", n, edges, 1, "g6"))
        out.append((f"rigid{n}", n, edges, 1, "el"))
    return out


def write_oracle_inputs(d: Path, seed: int) -> list[tuple[Path, int, int]]:
    """Write the oracle graph files; return (path, n, |Aut|) for each."""
    files = []
    for name, n, edges, aut, fmt in oracle_graphs(seed):
        path = d / f"{name}.{fmt}"
        path.write_text(graph6(n, edges) if fmt == "g6" else edgelist(n, edges),
                        encoding="ascii")
        files.append((path, n, aut))
    return files


def oracle_commands(files: list[tuple[Path, int, int]]) -> list[Cmd]:
    cmds = []
    for path, n, aut in files:
        lines = [re.escape(f"|Aut| = {aut}")]
        if n <= 9:
            lines.append(re.escape(f"brute-force cross-check: {aut} (agree)"))
        cmds.append(Cmd(["oracle-aut", str(path)], rc=0, lines=lines))
    return cmds


WORKLOADS = ("synthesize", "search", "oracle")


def make_pass_factory(workload: str, seed: int, inputs: Path):
    """Return pass_dir -> commands for the workload, writing seeded inputs once."""
    if workload == "synthesize":
        return lambda d: synthesize_pass(d, seed)
    if workload == "search":
        return search_pass
    if workload == "oracle":
        cmds = oracle_commands(write_oracle_inputs(inputs, seed))
        return lambda d: cmds
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
