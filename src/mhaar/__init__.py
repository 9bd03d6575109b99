"""Toolkit for multipartite Haar graphs with prescribed automorphism group.

Given a finite group G (as a multiplication table) and a part count m,
this package can

* build an m-part Haar graph realizing G as the full automorphism group
  whenever one exists, and name the obstruction when none does
  (:func:`synthesize`),
* certify a candidate connection matrix (:func:`is_m_hgr`,
  :func:`is_m_pgsr`, :func:`make_certificate`),
* exhaustively enumerate all m-part Haar graphs over small groups to
  decide existence from scratch (:func:`decide_existence`).

Everything runs on the standard library.  The automorphism engine caps
graphs at 1024 vertices by default; set MHAAR_MAX_VERTICES to raise it.
"""

from .autos import (AutResult, Verdict, aut_order, automorphism_group,
                    brute_force_aut_order, is_m_hgr, is_m_pgsr)
from .catalog import (CatalogEntry, asymmetric_regular_graph, build_entry,
                      entries, hgr_entry, lift_base_entry, matrix_from_graph)
from .cayley import (CayleyError, ConnectionMatrix, HaarVerdict, build_graph,
                     is_m_haar, load_matrix, right_translation)
from .constructions import (HGR_MIN_PARTS, SynthesisError, SynthesisResult,
                            generic_base, generic_hgr, has_m_hgr,
                            nonexistence_clause, synthesize)
from .formats import from_edgelist, from_graph6, to_edgelist, to_graph6
from .graphs import Graph
from .groups import (CapacityError, Group, GroupError, cyclic, dihedral,
                     elem_abelian, load_group, parse_group_spec, product)
from .lift import LiftError, lift_base
from .report import (CertificateCheck, certificate_json, emit,
                     load_certificate, make_certificate,
                     nonexistence_certificate, reverify, search_certificate,
                     write_certificate)
from .search import (SearchReport, c1_regular_asymmetric_scan,
                     decide_existence, space_size)

__version__ = "0.1.0"

__all__ = [
    "AutResult", "CapacityError", "CatalogEntry", "CayleyError",
    "CertificateCheck", "ConnectionMatrix", "Graph", "Group", "GroupError",
    "HGR_MIN_PARTS", "HaarVerdict", "LiftError", "SearchReport",
    "SynthesisError", "SynthesisResult", "Verdict",
    "asymmetric_regular_graph", "aut_order", "automorphism_group",
    "brute_force_aut_order", "build_entry", "build_graph",
    "c1_regular_asymmetric_scan", "certificate_json", "cyclic",
    "decide_existence", "dihedral", "elem_abelian", "emit", "entries",
    "from_edgelist", "from_graph6", "generic_base", "generic_hgr",
    "has_m_hgr", "hgr_entry", "is_m_haar", "is_m_hgr", "is_m_pgsr",
    "lift_base", "lift_base_entry", "load_certificate", "load_group",
    "load_matrix", "make_certificate", "matrix_from_graph",
    "nonexistence_certificate", "nonexistence_clause", "parse_group_spec",
    "product", "reverify", "right_translation",
    "search_certificate", "space_size", "synthesize", "to_edgelist",
    "to_graph6", "write_certificate", "__version__",
]
