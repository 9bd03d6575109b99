"""Every catalog and generic 2-/3-generated recipe, pinned by a digest.

Each digest covers the sorted `upper_items()` of the matrices a recipe
builds, so a restatement of the recipes must reproduce every block of
every witness.  Entries are built over their canonical group and over
relabeled copies, which also pins the generator choice of
`g0_generators`; the generic recipes run at 3 and 4 parts, as witnesses
and as chain-extension bases, over the order <= 12 battery plus a rank-3
and a rank-4 group.
"""

import contextlib
import hashlib
import io
import random

from mhaar.catalog import ENTRIES, build_entry
from mhaar.cli import main
from mhaar.constructions import generic_base, generic_hgr
from mhaar.groups import CATALOG_TAGS, GroupError, catalog_group, parse_group_spec

from conftest import battery_groups, relabeled_copy

COPIES = 3


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def _blocks(cm):
    return [(i, j, sorted(s)) for i, j, s in cm.upper_items()]


def entry_digest(entry) -> str:
    rng = random.Random(str(entry))
    canonical = catalog_group(entry.tag)
    groups = [canonical] + [relabeled_copy(canonical, rng) for _ in range(COPIES)]
    return _digest([_blocks(build_entry(entry, g)) for g in groups])


def generic_groups():
    groups = dict(battery_groups())
    for spec in ("C2^2xC4", "C2^4"):
        groups[spec] = parse_group_spec(spec)
    return groups


def generic_digest(group, name: str) -> str:
    rng = random.Random(name)
    items = []
    for g in (group, relabeled_copy(group, rng), relabeled_copy(group, rng)):
        for recipe in (generic_hgr, generic_base):
            for parts in (3, 4):
                try:
                    cm, label = recipe(g, parts)
                except GroupError as e:
                    items.append(("error", str(e)))
                else:
                    items.append((label, _blocks(cm)))
    return _digest(items)


def catalog_listings() -> str:
    """stdout of `mhaar catalog list` unfiltered and for every filter value."""
    filters = ([[]] + [["--tag", t] for t in CATALOG_TAGS]
               + [["--kind", k] for k in ("hgr", "pgsr")]
               + [["--m", str(m)] for m in range(2, 11)])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for argv in filters:
            print("$", *argv)
            assert main(["catalog", "list", *argv]) == 0
    return out.getvalue()


ENTRY_DIGESTS = {
    "C2 m=6 hgr/recorded v=(5, 5, 5, 5, 5, 5)": "de5edf19698e4c65",
    "C2 m=7 hgr/recorded v=(4, 4, 4, 4, 4, 4, 4)": "f4bab2be98988fe9",
    "C2 m=8 hgr/recorded v=(4, 4, 4, 4, 4, 4, 4, 4)": "45502f36a1b3021b",
    "C2 m=9 hgr/recorded v=(4, 4, 4, 4, 4, 4, 4, 4, 4)": "6ffe364236ad0f4d",
    "C3 m=5 hgr/recorded v=(4, 4, 4, 4, 4)": "45837615a1adddff",
    "C3 m=4 pgsr/recorded k=5 v=(6, 6, 5, 5)": "1ce514bd804a264d",
    "C3 m=5 pgsr/recorded k=5 v=(6, 6, 6, 5, 5)": "517c11198fbac21f",
    "C3 m=4 pgsr/derived k=3 v=(4, 4, 3, 3)": "fb10996242f2a372",
    "C3 m=5 pgsr/derived k=3 v=(4, 4, 4, 3, 3)": "1a3b43ac377daef1",
    "C4 m=4 hgr/recorded v=(5, 5, 5, 5)": "d251304cc60f9c11",
    "C4 m=3 pgsr/recorded k=3 v=(4, 3, 3)": "d2d633a187b89c45",
    "C4 m=4 pgsr/recorded k=4 v=(5, 5, 4, 4)": "1214d32ce3786804",
    "C5 m=4 hgr/recorded v=(5, 5, 5, 5)": "bcd7b03374ea249f",
    "C5 m=3 pgsr/recorded k=3 v=(4, 3, 3)": "57eee8b2805178cf",
    "C5 m=4 pgsr/recorded k=4 v=(5, 5, 4, 4)": "fd24e4af29587bea",
    "C6 m=4 hgr/recorded v=(5, 5, 5, 5)": "017b62150e0db176",
    "C6 m=3 pgsr/recorded k=3 v=(4, 3, 3)": "cacf4e9f96b66094",
    "C6 m=4 pgsr/recorded k=4 v=(5, 5, 4, 4)": "11a0b7a1fe903cc4",
    "C6 m=3 hgr/recorded v=(4, 4, 4)": "02d851f3bddc70da",
    "C2^2 m=4 hgr/recorded v=(5, 5, 5, 5)": "67356309fe27edb7",
    "C2^2 m=5 hgr/recorded v=(4, 4, 4, 4, 4)": "15671a810483c3ab",
    "C2^2 m=4 pgsr/recorded k=4 v=(5, 5, 4, 4)": "b01aa13ff57707b6",
    "C2^2 m=5 pgsr/recorded k=5 v=(6, 6, 6, 5, 5)": "41eb136fc6778615",
    "C2^2 m=5 pgsr/derived k=3 v=(4, 4, 4, 3, 3)": "c56cf97109eb9011",
    "C2^3 m=3 hgr/recorded v=(8, 8, 8)": "0fd2547128c564be",
    "C2^3 m=4 hgr/recorded v=(5, 5, 5, 5)": "e3a0801c61247b09",
    "C2^3 m=3 pgsr/recorded k=5 v=(6, 5, 5)": "a54582b6d9a87ac4",
    "C2^3 m=4 pgsr/recorded k=4 v=(5, 5, 4, 4)": "dbd9977c2048a8e7",
    "C3^2 m=3 hgr/recorded v=(6, 6, 6)": "3c0e374edb4e17fd",
    "A4 m=3 hgr/recorded v=(6, 6, 6)": "c7c7acdc9457a0ab",
    "X27 m=3 hgr/recorded v=(6, 6, 6)": "3e2fbc36d1452e4e",
    "C3^2 m=4 hgr/recorded v=(5, 5, 5, 5)": "21f7122e828646ef",
    "C3^2 m=3 pgsr/recorded k=5 v=(6, 5, 5)": "4e87cd4bf0f84e9e",
    "C3^2 m=4 pgsr/recorded k=4 v=(5, 5, 4, 4)": "fd8d8069959e8425",
    "D6 m=4 hgr/recorded v=(5, 5, 5, 5)": "2ef478d1e38f9853",
    "D6 m=3 pgsr/recorded k=5 v=(6, 5, 5)": "cfc96684630bc4e6",
    "D6 m=4 pgsr/recorded k=4 v=(5, 5, 4, 4)": "ee83cfb97a8d3fc4",
    "A4 m=4 hgr/recorded v=(5, 5, 5, 5)": "0affcdaf805efb9d",
    "A4 m=3 pgsr/recorded k=5 v=(6, 5, 5)": "163b66c6e51e2211",
    "A4 m=4 pgsr/recorded k=4 v=(5, 5, 4, 4)": "b56013e9f166cd45",
    "X27 m=4 hgr/recorded v=(5, 5, 5, 5)": "7e0efcf2d731315c",
    "X27 m=3 pgsr/recorded k=5 v=(6, 5, 5)": "c1353506d1cc12aa",
    "X27 m=4 pgsr/recorded k=4 v=(5, 5, 4, 4)": "ab3c0d354bcb28c9",
}
GENERIC_DIGESTS = {
    "C1": "51b047a4584995ac",
    "C2": "51b047a4584995ac",
    "C3": "51b047a4584995ac",
    "C4": "4e54ba44916e6740",
    "C5": "0c25d88d3ff9f32e",
    "C6": "e7bd1fcb17d86dc1",
    "C7": "6b905ffde68c72f7",
    "C8": "c066566f29eb856d",
    "C9": "1332eb6465d23eb1",
    "C10": "65e85fee994bc5dd",
    "C11": "ec7dd307a1871050",
    "C12": "71eca5130bcfd3cb",
    "C2^2": "51b047a4584995ac",
    "C2^3": "33d3aecb6da67335",
    "C3^2": "51b047a4584995ac",
    "C4xC2": "c8f71c3d3351d4fc",
    "C6xC2": "4c0f1f8f91b8e7bf",
    "D6": "51b047a4584995ac",
    "D8": "67a785d813e54b47",
    "D10": "168b8cc35059000f",
    "D12": "efc6c3cd2e35302d",
    "Q8": "7a5d3515133b3d79",
    "A4": "51b047a4584995ac",
    "Dic3": "4688b5247bd3fcde",
    "C2^2xC4": "f5d1068e6449ea1b",
    "C2^4": "fe88155feb052a1f",
}
LISTING_DIGEST = "da76577b2e501c39"


def test_every_catalog_entry_is_pinned():
    assert {str(e): entry_digest(e) for e in ENTRIES} == ENTRY_DIGESTS


def test_every_generic_recipe_is_pinned():
    assert {name: generic_digest(g, name)
            for name, g in generic_groups().items()} == GENERIC_DIGESTS


def test_catalog_listing_is_pinned():
    text = catalog_listings()
    assert text.count("\n") == 220
    assert _digest(text) == LISTING_DIGEST
