"""Finiteness properties of the cohomology of graded monomial algebras.

The pipeline: parse a presentation, build the annihilator graph, then
read off global dimension, growth, finite generation of the cohomology
algebra and the one-sided chain conditions.  An independent resolution
oracle cross-checks the graded dimensions.
"""

from .presentation import (Presentation, PresentationError, make_presentation,
                           parse_presentation, serialize_presentation)
from .monomial import (MonomialIdeal, PreconditionError,
                       annihilator_generators, left_min_annihilating_suffix)
from .graph import (CpsGraph, GraphParams, build_marked_graph,
                    circuits_and_sccs, export_dot, export_json, graph_params)
from .walks import (AnchoredWalk, EventuallyPeriodicWalk, WalkCapExceeded,
                    canonical_anchored, enumerate_anchored, is_decomposable,
                    is_dense, word_of)
from .ext import (BigradedTable, ExtClass, ext_class, generators_up_to,
                  hilbert_series, poincare_table, yoneda_mul)
from .decide import (INFINITY, AnalysisReport, analyze, finitely_generated,
                     gk_dimension, global_dimension, noetherian,
                     report_to_json)
from .oracle import BettiTable, cross_validate, minimal_resolution

__all__ = [
    "Presentation", "PresentationError", "make_presentation",
    "parse_presentation", "serialize_presentation",
    "MonomialIdeal", "PreconditionError", "annihilator_generators",
    "left_min_annihilating_suffix",
    "CpsGraph", "GraphParams", "build_marked_graph",
    "circuits_and_sccs", "export_dot", "export_json", "graph_params",
    "AnchoredWalk", "EventuallyPeriodicWalk", "WalkCapExceeded",
    "canonical_anchored", "enumerate_anchored", "is_decomposable", "is_dense",
    "word_of",
    "BigradedTable", "ExtClass", "ext_class", "generators_up_to",
    "hilbert_series", "poincare_table", "yoneda_mul",
    "INFINITY", "AnalysisReport", "analyze", "finitely_generated",
    "gk_dimension", "global_dimension", "noetherian", "report_to_json",
    "BettiTable", "cross_validate", "minimal_resolution",
]
__version__ = "0.1.0"
