"""Exact compression of k-terminal networks into mimicking networks.

A mimicking network preserves the minimum cut value between every terminal
bipartition exactly.  This package builds them (component contraction and
signature merging), verifies them by recomputation, checks the planar
structural bounds through duality, reproduces the rank-based size lower
bounds on constructed families, and ships a preprocess/query store for all
terminal cut values.  All cut arithmetic is exact rational.

The names below are imported on first use (PEP 562), so ``import
mimicknet`` loads no numpy, and the console script can pin BLAS threads
before numpy loads (:mod:`mimicknet.__main__`).
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the module that defines it
_EXPORTS = {
    "Bipartition": "network",
    "ContractionMap": "network",
    "CutResult": "mincut",
    "DualGraph": "planar",
    "Edge": "network",
    "GapReport": "mincut",
    "IncidenceMatrix": "incidence",
    "MimicknetError": "errors",
    "Network": "network",
    "PlaneEmbedding": "planar",
    "TCStore": "tcscheme",
    "build_by_contraction": "mimick",
    "build_by_signature": "mimick",
    "build_dual": "planar",
    "build_incidence": "incidence",
    "check_component_bounds": "planar",
    "connected_components": "network",
    "contract": "network",
    "dual_circuit_check": "planar",
    "enumerate_bipartitions": "network",
    "faces_of_subgraph": "planar",
    "min_cut_and_uniqueness": "mincut",
    "min_separating_cut": "mincut",
    "perturb": "incidence",
    "preprocess": "tcscheme",
    "query": "tcscheme",
    "storage_report": "tcscheme",
    "uniqueness_by_flow": "mincut",
    "verify": "mimick",
    "verify_generalized": "mimick",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
