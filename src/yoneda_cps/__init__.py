"""Finiteness properties of the cohomology of graded monomial algebras.

The pipeline: parse a presentation, build the annihilator graph, then
read off global dimension, growth, finite generation of the cohomology
algebra and the one-sided chain conditions.  An independent resolution
oracle cross-checks the graded dimensions.

Importing the package loads none of its modules.  Each public name
resolves on first use, which imports the module that defines it, so a
caller pays only for the modules it runs.
"""

from importlib import import_module

_HOME = {
    "presentation": ("Presentation", "PresentationError", "WalkCapExceeded",
                     "make_presentation", "parse_presentation",
                     "serialize_presentation"),
    "monomial": ("MonomialIdeal", "PreconditionError"),
    "graph": ("CpsGraph", "GraphParams", "build_marked_graph",
              "circuits_and_sccs", "export_dot", "export_json",
              "graph_params"),
    "walks": ("AnchoredWalk", "EventuallyPeriodicWalk", "canonical_anchored",
              "enumerate_anchored", "is_decomposable", "is_dense", "word_of"),
    "ext": ("BigradedTable", "ExtClass", "ext_class", "generators_up_to",
            "hilbert_series", "poincare_table", "yoneda_mul"),
    "decide": ("INFINITY", "AnalysisReport", "analyze", "finitely_generated",
               "gk_dimension", "global_dimension", "noetherian",
               "report_to_json"),
    "oracle": ("BettiTable", "cross_validate", "minimal_resolution"),
}
_MODULE_OF = {name: module for module, names in _HOME.items()
              for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    """Resolve a public name on first access and keep it (PEP 562)."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
