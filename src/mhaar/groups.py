"""Finite groups as multiplication tables.

Elements are integers 0..n-1 with the identity fixed at index 0.  The table
stores table[a][b] = a*b; a group is its table and an optional descriptor.
Constructors for the families used elsewhere (cyclic, elementary abelian,
dihedral, A4, Q8, the exponent-3 extraspecial group of order 27, direct
products) all produce documented canonical element orders, so the same group
always comes back with the same table; all but cyclic groups and products
build it in one helper, _group_on, from a list of elements and their
product.  Every table is checked against the group axioms exactly
(associativity by Light's test).
One closure, subgroup_generated, serves that check and the one search for
generating tuples, which the minimum generating set, the generating pair and
the generating triple all run.  That search refuses a group of order over
half the vertex cap (512 by default), the largest group a graph within the
cap can hold, as m >= 2 parts of |G| vertices each.
"""

from __future__ import annotations

import itertools
import operator
import re
from typing import Iterable, Optional, Sequence

from .graphs import CapacityError, read_input, vertex_cap


class GroupError(ValueError):
    """A table failed the group axioms, or an argument is not a group element.

    `field` names the key of group JSON at fault when Group.from_json
    raises ("table", "order" or "descriptor"); it is None when the JSON
    is not an object with both keys, and for every other error.
    """

    def __init__(self, message: str, field: Optional[str] = None):
        super().__init__(message)
        self.field = field


class Group:
    """A finite group given by its multiplication table.

    The constructor checks the axioms exactly: identity at index 0, each row
    and column a permutation, inverses present, and associativity by Light's
    test on a greedily chosen generating set.
    """

    def __init__(self, table: Sequence[Sequence[int]], descriptor: Optional[str] = None):
        n = len(table)
        if n == 0:
            raise GroupError("empty table")
        self.order = n
        self.table = tuple(tuple(row) for row in table)
        for a, row in enumerate(self.table):
            if len(row) != n:
                raise GroupError(f"row {a} has length {len(row)}, expected {n}")
            for b, v in enumerate(row):
                if not (0 <= v < n):
                    raise GroupError(f"entry table[{a}][{b}] = {v} out of range")
        self.descriptor = descriptor
        self._validate()
        self._inv = tuple(row.index(0) for row in self.table)
        self._orders: Optional[tuple[int, ...]] = None
        self._abelian: Optional[bool] = None
        self._min_gens: Optional[tuple[int, ...]] = None
        self._quotients: Optional[list] = None

    def _validate(self) -> None:
        n, t = self.order, self.table
        for a in range(n):
            if t[0][a] != a or t[a][0] != a:
                raise GroupError(f"index 0 is not an identity at element {a}")
            if len(set(t[a])) != n:
                raise GroupError(f"row {a} is not a permutation")
            if len({t[b][a] for b in range(n)}) != n:
                raise GroupError(f"column {a} is not a permutation")
        # Light's test (Clifford & Preston 1961): the elements s with
        # (x*s)*y = x*(s*y) for all x, y are closed under products, so it
        # suffices to check a generating set.  Once the generators so far
        # pass, their closure is a subgroup, so each new generator taken
        # from outside it at least doubles it: O(n^2 log n) in all.
        gens: list[int] = []
        closure = frozenset([0])
        for s in range(n):
            if s in closure:
                continue
            # row x*(s*y) over all y; n >= 2 here, so itemgetter gives a tuple
            times_s = operator.itemgetter(*t[s])
            for x in range(n):
                left, right = t[t[x][s]], times_s(t[x])
                if left != right:
                    y = next(y for y in range(n) if left[y] != right[y])
                    raise GroupError(f"associativity fails on triple ({x}, {s}, {y})")
            gens.append(s)
            closure = subgroup_generated(self, gens)

    # -- arithmetic ---------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self._inv[a], -k)
        r = 0
        for _ in range(k):
            r = self.table[r][a]
        return r

    def element_order(self, a: int) -> int:
        return self.element_orders()[a]

    def element_orders(self) -> tuple[int, ...]:
        if self._orders is None:
            orders = []
            for g in range(self.order):
                k, x = 1, g
                while x != 0:
                    x = self.table[x][g]
                    k += 1
                orders.append(k)
            self._orders = tuple(orders)
        return self._orders

    def is_abelian(self) -> bool:
        if self._abelian is None:
            n, t = self.order, self.table
            self._abelian = all(t[a][b] == t[b][a] for a in range(n) for b in range(a + 1, n))
        return self._abelian

    @property
    def label(self) -> str:
        return self.descriptor or f"order-{self.order} group"

    def inv_set(self, elems: Iterable[int]) -> frozenset[int]:
        return frozenset(self._inv[e] for e in elems)

    def __repr__(self) -> str:
        d = self.descriptor or "custom"
        return f"Group({d}, order={self.order})"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"order": self.order, "table": [list(r) for r in self.table]}

    @staticmethod
    def from_json(data: dict) -> "Group":
        if not isinstance(data, dict) or "order" not in data or "table" not in data:
            raise GroupError("group JSON needs 'order' and 'table' keys")
        table = data["table"]
        if not isinstance(table, list) or not all(
                isinstance(row, list) and all(type(v) is int for v in row) for row in table):
            raise GroupError("group JSON 'table' must be a list of integer lists", "table")
        order = data["order"]
        if type(order) is not int or order != len(table):
            raise GroupError(f"declared order {order!r} does not match the "
                             f"{len(table)} rows of the table", "order")
        cap = vertex_cap()  # before the table is validated
        if order > cap:
            raise CapacityError(f"group table has order {order}, over the vertex cap "
                                f"of {cap} (set MHAAR_MAX_VERTICES to raise it)")
        descriptor = data.get("descriptor")
        if descriptor is not None and not isinstance(descriptor, str):
            raise GroupError("group JSON 'descriptor' must be a string", "descriptor")
        try:
            return Group(table, descriptor=descriptor)
        except GroupError as e:
            e.field = "table"
            raise


def read_json(path: str):
    """The JSON value in a file; the one reader behind every JSON file the
    CLI loads.  The file is read through `graphs.read_input`, so a file
    past its byte limit raises CapacityError.  A file that is not UTF-8
    JSON, or is nested too deeply for the decoder, raises ValueError
    naming the file, not a bare decoder error or RecursionError."""
    import json  # here, so that a command that reads no file never loads it

    text = read_input(path)
    try:
        return json.loads(text)
    except ValueError as e:  # JSONDecodeError
        raise ValueError(f"{path}: invalid JSON: {e}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def load_group(path: str) -> Group:
    return Group.from_json(read_json(path))


# -- constructors ------------------------------------------------------------


def _group_on(elements: Sequence, mul, descriptor: Optional[str]) -> Group:
    """The group whose element i is elements[i] (identity first), with
    products given by mul on the elements themselves."""
    index = {e: i for i, e in enumerate(elements)}
    return Group([[index[mul(a, b)] for b in elements] for a in elements],
                 descriptor=descriptor)


def cyclic(n: int) -> Group:
    """Cyclic group of order n; element i is x^i."""
    if n < 1:
        raise GroupError("cyclic order must be >= 1")
    return Group([[(a + b) % n for b in range(n)] for a in range(n)], descriptor=f"C{n}")


def product(factors: Sequence[Group]) -> Group:
    """Direct product with lexicographic tuple ordering of elements.

    Built from the right, one pair at a time: the pair (a, b) of H x G is
    element a*|G| + b, and its row comes from row a of H's table and row
    b of G's.  So G x (H x K) orders its pairs (g, (h, k)) as the triples
    (g, h, k).
    """
    if not factors:
        return cyclic(1)
    g = factors[-1]
    for h in reversed(factors[:-1]):
        k = g.order
        g = Group([[x * k + y for x in hrow for y in grow]
                   for hrow in h.table for grow in g.table],
                  descriptor=f"{h.descriptor}x{g.descriptor}"
                  if h.descriptor and g.descriptor else None)
    return g


def elem_abelian(p: int, k: int) -> Group:
    """Elementary abelian group of order p^k, the product of k copies of Cp.

    Elements are exponent vectors in lexicographic order, so the factor-i
    basis vector sits at index p^(k-1-i).
    """
    if p not in (2, 3):
        raise GroupError("elementary abelian constructor supports p in {2, 3}")
    if k < 1:
        raise GroupError("k must be >= 1")
    g = product([cyclic(p)] * k)
    g.descriptor = f"C{p}^{k}" if k > 1 else f"C{p}"
    return g


def dihedral(n: int) -> Group:
    """Dihedral group of ORDER n (even, >= 6): n/2 rotations, n/2 reflections.

    Element i < n/2 is the rotation x^i, with x of order n/2; element
    n/2 + i is x^i y, with y a reflection.
    """
    if n < 6 or n % 2:
        raise GroupError("dihedral order must be an even integer >= 6")
    r = n // 2
    # (x^i y^e)(x^j y^d) = x^(i +- j) y^(e+d): y^e inverts x^j on the way past
    return _group_on([(i, e) for e in range(2) for i in range(r)],
                     lambda a, b: ((a[0] + (-b[0] if a[1] else b[0])) % r, (a[1] + b[1]) % 2),
                     f"D{n}")


def alternating4() -> Group:
    """A4 as the even permutations of 4 points, identity first, lex order."""
    perms = [p for p in itertools.permutations(range(4))
             if sum(p[i] > p[j] for i, j in itertools.combinations(range(4), 2)) % 2 == 0]
    return _group_on(perms, lambda p, q: tuple(p[k] for k in q), "A4")


def quaternion8() -> Group:
    """Quaternion group of order 8: 1, -1, i, -i, j, -j, k, -k.

    Elements are unit quaternions as coefficient vectors (1, i, j, k part),
    multiplied by Hamilton's rule.
    """
    def mul(x: tuple, y: tuple) -> tuple:
        a, b, c, d = x
        e, f, g, h = y
        return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
                a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)

    return _group_on([tuple(s * (i == j) for j in range(4)) for i in range(4) for s in (1, -1)],
                     mul, "Q8")


def extraspecial27() -> Group:
    """The nonabelian group of order 27 and exponent 3 (Heisenberg over GF(3)).

    Elements are triples (a, b, c) in lex order with product
    (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b').
    """
    return _group_on(list(itertools.product(range(3), repeat=3)),
                     lambda u, v: ((u[0] + v[0]) % 3, (u[1] + v[1]) % 3,
                                   (u[2] + v[2] + u[0] * v[1]) % 3),
                     "X27")


# -- generation-rank machinery -----------------------------------------------


def subgroup_generated(g: Group, elems: Iterable[int]) -> frozenset[int]:
    """The subgroup generated by elems: the identity closed under right
    multiplication by elems.  No inverses are needed, because in a finite
    group every inverse is a positive power."""
    gens = tuple(elems)
    table = g.table
    seen = {0}
    frontier = [0]
    while frontier:
        row = table[frontier.pop()]
        for b in gens:
            c = row[b]
            if c not in seen:
                seen.add(c)
                frontier.append(c)
    return frozenset(seen)


def _first_generating_tuple(g: Group, t: int, first_order: int = 1) -> Optional[tuple[int, ...]]:
    """First t-tuple in lex order that generates g, or None; the one check
    of the order cap, made before any O(n^2) work.

    The first element has order >= first_order, each later one lies outside
    the subgroup the earlier ones generate, and from the third on each is
    larger than the one before.  Once a non-empty prefix generates g, the
    rest is the identity: a cyclic g gives (x, 0) for t = 2.

    A prefix of length L whose image in a quotient G/G'G^p of rank r has
    rank below L - (t - r) is cut: the t - L elements still to come raise
    that rank by at most t - L, and a generating tuple spans the quotient.
    So the cut removes only subtrees without a solution, and the tuple found
    does not depend on it.

    A sibling whose closure <prefix, e> an earlier sibling already had is
    not recursed into.  The closure fixes the quotient images, and the
    later sibling's subtree starts no earlier than the earlier one's, so
    it admits only elements the earlier subtree also admitted; whether a
    tuple generates depends only on the closure and the elements after
    it, so when the earlier subtree found nothing, the later one cannot
    either.  The tuple found does not depend on the memo.
    """
    n = g.order
    cap = vertex_cap() // 2  # the largest group a graph within the cap holds, m >= 2
    if n > cap:
        raise CapacityError(f"generating-rank search capped at order {cap}, got {n}")
    if t == 0:
        return () if n == 1 else None
    orders = g.element_orders()
    table = g.table
    quotients = _frattini_quotients(g)

    def extend(prefix: tuple[int, ...], closure: frozenset[int], images: list,
               start: int) -> Optional[tuple[int, ...]]:
        left = t - len(prefix) - 1  # elements still to come after e
        tried: set[frozenset[int]] = set()  # the closures recursed into
        for e in range(start, n):
            if e in closure or (not prefix and orders[e] < first_order):
                continue
            grown = []
            for (p, r, labels, reps), image in zip(quotients, images):
                if labels[e] not in image:
                    # the quotient is elementary abelian: add the multiples
                    # of e's coset to the image, one coset of it at a time
                    more, y = set(image), e
                    for _ in range(p - 1):
                        more.update(labels[table[reps[s]][y]] for s in image)
                        y = table[y][e]
                    image = more
                if len(image) * p ** left < p ** r:
                    break
                grown.append(image)
            else:
                tup = prefix + (e,)
                sub = subgroup_generated(g, tup)
                if len(sub) == n:
                    return tup + (0,) * left
                if left and sub not in tried:
                    tried.add(sub)
                    res = extend(tup, sub, grown, e + 1 if prefix else 1)
                    if res is not None:
                        return res
        return None

    return extend((), frozenset([0]), [{0}] * len(quotients), 1)


def _frattini_quotients(g: Group) -> list[tuple[int, int, list[int], list[int]]]:
    """The quotients G/G'G^p of rank r >= 2, cached on g: for each, the
    prime p, r, the coset label of every element and a representative of
    every coset (label 0 is the identity's).

    G'G^p (commutators and p-th powers) is normal with an elementary abelian
    quotient, which every generating set spans.  A prime is skipped when
    p^2 does not divide |G|, or when G/G^p alone has rank below 2, and G'
    is computed at most once.
    """
    if g._quotients is None:
        n, table, inv = g.order, g.table, g._inv
        derived = None
        g._quotients = []
        for p in range(2, n + 1):
            if n % (p * p) or any(p % q == 0 for q in range(2, p)):
                continue
            powers = {g.power(x, p) for x in range(n)}
            if n // len(subgroup_generated(g, powers)) < p * p:
                continue
            if derived is None:
                derived = {table[table[inv[x]][inv[y]]][table[x][y]]
                           for x in range(1, n) for y in range(x + 1, n)}
            kernel = subgroup_generated(g, powers | derived)
            index, r = n // len(kernel), 0  # the index is a power of p
            while index > 1:
                index, r = index // p, r + 1
            if r < 2:
                continue
            labels, reps = [-1] * n, []
            for x in range(n):
                if labels[x] < 0:
                    for k in kernel:
                        labels[table[x][k]] = len(reps)
                    reps.append(x)
            g._quotients.append((p, r, labels, reps))
    return g._quotients


def _rank_lower_bound(g: Group) -> int:
    """max over primes p of the rank of G/G'G^p, a lower bound on d(G),
    and 1 for a nontrivial G.

    The bound is d(G) for nilpotent G (Burnside basis theorem).
    """
    return max([int(g.order > 1)] + [r for _, r, _, _ in _frattini_quotients(g)])


def minimal_generating_size(g: Group) -> int:
    """d(G): the least number of generators."""
    return len(minimal_generating_set(g))


def minimal_generating_set(g: Group) -> tuple[int, ...]:
    """A deterministic minimum generating tuple, cached on g.

    The lex-first search runs at t = 0, then from `_rank_lower_bound` up to
    the first t that generates, which is at most log2 |G|; at t = d(G) no
    element is redundant, so the tuple found is ascending.  Unless G is
    elementary abelian of exponent 2 (or trivial), the result starts with
    an element of order >= 3: when the search returns only involutions,
    some product h_i*h_j has order >= 3 (otherwise G would be elementary
    abelian 2), and h_i is replaced by that product.
    """
    if g._min_gens is None:
        # t = 0 checks the order cap before the bound's O(n^2) work
        tup = _first_generating_tuple(g, 0)
        if tup is None:
            t = _rank_lower_bound(g)
            while (tup := _first_generating_tuple(g, t)) is None:
                t += 1
        g._min_gens = _reorder_min_gens(g, tup)
    return g._min_gens


def _reorder_min_gens(g: Group, tup: tuple[int, ...]) -> tuple[int, ...]:
    i = next((i for i, h in enumerate(tup) if g.element_order(h) >= 3), None)
    if i is not None:
        return (tup[i],) + tup[:i] + tup[i + 1:]
    # only involutions: if every product of two has order <= 2, they commute
    # pairwise, and G is elementary abelian 2
    for i, j in itertools.combinations(range(len(tup)), 2):
        prod = g.table[tup[i]][tup[j]]
        if g.element_order(prod) >= 3:
            rest = tuple(h for k, h in enumerate(tup) if k != i)
            return (prod,) + rest
    return tup


def pair_with_order_ge4(g: Group) -> tuple[int, int]:
    """First generating pair (x, y) with |x| >= 4, in lex element order;
    (x, 0) when x alone generates.

    Raises GroupError naming the known exceptional types when no such pair
    exists (for 2-generated groups these are exactly C2^2, C3^2, D6, A4 and
    the order-27 exponent-3 extraspecial group).
    """
    pair = _first_generating_tuple(g, 2, first_order=4)
    if pair is None:
        raise GroupError(
            "no generating pair with first element of order >= 4; for 2-generated "
            "groups the only such cases are C2^2, C3^2, D6, A4 and X27")
    return pair


def triple_with_order_ge3(g: Group) -> tuple[int, int, int]:
    """First generating triple (x, y, z) with |x| >= 3, for rank-3 groups.

    Raises GroupError when no such triple exists (among rank-3 groups this is
    exactly the elementary abelian C2^3).
    """
    if minimal_generating_size(g) != 3:
        raise GroupError("triple_with_order_ge3 requires a rank-3 group")
    triple = _first_generating_tuple(g, 3, first_order=3)
    if triple is None:
        raise GroupError("no generating triple with first element of order >= 3 "
                         "(for rank-3 groups this means C2^3)")
    return triple


# -- recognition of the twelve catalog groups --------------------------------

# tag -> (order, abelian?, sorted element orders); the triple separates each
# member from every other group of the same order
_CATALOG_INVARIANTS: dict[str, tuple[int, bool, tuple[int, ...]]] = {
    "C1": (1, True, (1,)),
    "C2": (2, True, (1, 2)),
    "C3": (3, True, (1, 3, 3)),
    "C4": (4, True, (1, 2, 4, 4)),
    "C5": (5, True, (1, 5, 5, 5, 5)),
    "C6": (6, True, (1, 2, 3, 3, 6, 6)),
    "C2^2": (4, True, (1, 2, 2, 2)),
    "C2^3": (8, True, (1,) + (2,) * 7),
    "C3^2": (9, True, (1,) + (3,) * 8),
    "D6": (6, False, (1, 2, 2, 2, 3, 3)),
    "A4": (12, False, (1, 2, 2, 2) + (3,) * 8),
    "X27": (27, False, (1,) + (3,) * 26),
}

CATALOG_TAGS = tuple(_CATALOG_INVARIANTS)


def identify_catalog_group(g: Group) -> Optional[str]:
    """Tag of the catalog group isomorphic to g, or None.

    Works on arbitrary ingested tables: the invariant triple
    (order, abelian flag, element-order multiset) separates all twelve
    catalog members from every other isomorphism type of the same order.
    """
    triple = (g.order, g.is_abelian(), tuple(sorted(g.element_orders())))
    for tag, inv in _CATALOG_INVARIANTS.items():
        if triple == inv:
            return tag
    return None


def catalog_group(tag: str) -> Group:
    """Construct the catalog group with the given tag; each tag is a group spec."""
    if tag not in CATALOG_TAGS:
        raise GroupError(f"unknown catalog tag {tag!r}")
    return parse_group_spec(tag)


# -- group spec parsing -------------------------------------------------------

# ASCII digits only, and at most 18 of them: far above any order within
# the vertex cap, and far below the digit limit of int()
_DIGITS = "([0-9]{1,18})"
_TOKEN_RE = re.compile(rf"^(?:C{_DIGITS}(?:\^{_DIGITS})?|D{_DIGITS}|Q8|A4|X27)$")
_NAMED = {"Q8": (quaternion8, 8), "A4": (alternating4, 12), "X27": (extraspecial27, 27)}


def parse_group_spec(spec: str) -> Group:
    """Build a group from a compact descriptor.

    Grammar: Cn, Cn^k, Dn (n = group order, even, >= 6), Q8, A4, X27,
    and products of these joined by a lowercase "x" (spaces optional),
    e.g. "C2^2xC4" or "D8 x C3".  Only the grammar is read: the command
    line's "@FILE" form is mapped to `load_group` by the CLI.

    The order follows from the grammar, and a spec whose order is over
    the vertex cap, or with more factors than the bit length of the cap,
    raises CapacityError before any table is built: one part of a graph
    over G already has |G| vertices.
    """
    spec = spec.strip()
    if not spec:
        raise GroupError("empty group spec")
    cap = vertex_cap()
    plan = []  # (constructor, arguments, copies), left to right
    order = 1
    pos = 0
    for raw in spec.split("x"):
        token = raw.strip()
        at = pos + len(raw) - len(raw.lstrip())
        pos += len(raw) + 1
        mm = _TOKEN_RE.match(token)
        if not mm:
            raise GroupError(
                f"bad group token {token!r} at position {at} "
                "(expected Cn, Cn^k, Dn, Q8, A4 or X27)")
        if token in _NAMED:
            make, size = _NAMED[token]
            plan.append((make, (), 1))
        elif mm.group(3) is not None:
            size = int(mm.group(3))
            plan.append((dihedral, (size,), 1))
        else:
            n = int(mm.group(1))
            k = 1 if mm.group(2) is None else int(mm.group(2))
            if k < 1:
                raise GroupError(f"bad exponent in {token!r}")
            if mm.group(2) is not None and n in (2, 3):
                plan.append((elem_abelian, (n, k), 1))
            else:
                plan.append((cyclic, (n,), k))
            # n^k > cap once k reaches the bit length of cap, so no huge power
            size = n ** k if n < 2 or k < cap.bit_length() else cap + 1
        order *= size
        if order > cap:
            raise CapacityError(f"group {spec!r} has order over the vertex cap of "
                                f"{cap} (set MHAAR_MAX_VERTICES to raise it)")
    # every factor but C1 at least doubles the order, so within the cap no
    # spec needs more factors than the bit length of the cap
    count = sum(copies for _, _, copies in plan)
    if count > cap.bit_length():
        raise CapacityError(f"group {spec!r} has {count} factors, more than the "
                            f"{cap.bit_length()} any group within the vertex cap of {cap} needs")
    factors = [make(*args) for make, args, copies in plan for _ in range(copies)]
    return factors[0] if len(factors) == 1 else product(factors)
