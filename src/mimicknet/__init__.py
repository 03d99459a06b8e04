"""Exact compression of k-terminal networks into mimicking networks.

A mimicking network preserves the minimum cut value between every terminal
bipartition exactly.  This package builds them (component contraction and
signature merging), verifies them by recomputation, checks the planar
structural bounds through duality, reproduces the rank-based size lower
bounds on constructed families, and ships a preprocess/query store for all
terminal cut values.  All cut arithmetic is exact rational.
"""

from .errors import MimicknetError
from .incidence import IncidenceMatrix, build_incidence, perturb
from .mimick import build_by_contraction, build_by_signature, verify, verify_generalized
from .mincut import (
    CutResult,
    GapReport,
    gap,
    min_cut_and_uniqueness,
    min_separating_cut,
    uniqueness_by_flow,
)
from .network import (
    Bipartition,
    ContractionMap,
    Edge,
    Network,
    connected_components,
    contract,
    enumerate_bipartitions,
)
from .planar import (
    DualGraph,
    PlaneEmbedding,
    build_dual,
    check_component_bounds,
    dual_circuit_check,
    faces_of_subgraph,
)
from .tcscheme import TCStore, preprocess, query, storage_report

__version__ = "0.1.0"

__all__ = [
    "Bipartition",
    "ContractionMap",
    "CutResult",
    "DualGraph",
    "Edge",
    "GapReport",
    "IncidenceMatrix",
    "MimicknetError",
    "Network",
    "PlaneEmbedding",
    "TCStore",
    "build_by_contraction",
    "build_by_signature",
    "build_dual",
    "build_incidence",
    "check_component_bounds",
    "connected_components",
    "contract",
    "dual_circuit_check",
    "enumerate_bipartitions",
    "faces_of_subgraph",
    "gap",
    "min_cut_and_uniqueness",
    "min_separating_cut",
    "perturb",
    "preprocess",
    "query",
    "storage_report",
    "uniqueness_by_flow",
    "verify",
    "verify_generalized",
]
