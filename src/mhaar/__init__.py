"""Toolkit for multipartite Haar graphs with prescribed automorphism group.

Given a finite group G (as a multiplication table) and a part count m,
this package can

* build an m-part Haar graph realizing G as the full automorphism group
  whenever one exists, and name the obstruction when none does
  (:func:`synthesize`),
* certify a candidate connection matrix: :func:`evidence` runs the
  engine once and collects what a certificate records, and
  :func:`check_claim` is the one claim check (empty diagonal, regular
  for an HGR, |Aut| = |G|, orbits are the parts) behind
  :func:`is_m_hgr`, :func:`is_m_pgsr`, :func:`make_certificate` and
  :func:`reverify`,
* exhaustively enumerate all m-part Haar graphs over small groups to
  decide existence from scratch (:func:`decide_existence`).

Everything runs on the standard library.  The automorphism engine caps
graphs at 1024 vertices by default; set MHAAR_MAX_VERTICES to raise it.
"""

import importlib

# public name -> defining module; each module is imported on first access
# (PEP 562), so `import mhaar.cli` loads only what a command runs
_EXPORTS = {
    "autos": ("AutResult", "Evidence", "automorphism_group",
              "brute_force_aut_order", "check_claim", "evidence", "is_m_hgr",
              "is_m_pgsr"),
    "catalog": ("CatalogEntry", "asymmetric_regular_graph", "build_entry",
                "entries", "matrix_from_graph"),
    "cayley": ("CayleyError", "ConnectionMatrix", "Verdict", "build_graph",
               "is_m_haar", "load_matrix", "right_translation"),
    "constructions": ("HGR_MIN_PARTS", "SynthesisError", "SynthesisResult",
                      "generic_base", "generic_hgr", "nonexistence_clause",
                      "synthesize"),
    "formats": ("from_edgelist", "from_graph6", "to_edgelist", "to_graph6"),
    "graphs": ("CapacityError", "Graph"),
    "groups": ("Group", "GroupError", "cyclic", "dihedral", "elem_abelian",
               "load_group", "parse_group_spec", "product"),
    "lift": ("LiftError", "lift_base"),
    "report": ("certificate_json", "emit", "load_certificate",
               "make_certificate", "nonexistence_certificate", "reverify",
               "search_certificate", "write_certificate"),
    "search": ("SearchReport", "c1_regular_asymmetric_scan",
               "decide_existence", "space_size"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))


__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]
