import types

import yoneda_cps


def test_all_lists_resolvable_names_and_no_modules():
    names = yoneda_cps.__all__
    assert len(set(names)) == len(names)
    for name in names:
        value = getattr(yoneda_cps, name)
        assert not isinstance(value, types.ModuleType), name


def test_public_api_is_pinned():
    """Adding or removing a public name must be a deliberate edit here."""
    assert sorted(yoneda_cps.__all__) == [
        "AnalysisReport", "AnchoredWalk", "BettiTable", "BigradedTable",
        "CpsGraph", "EventuallyPeriodicWalk", "ExtClass", "GraphParams",
        "INFINITY", "MonomialIdeal", "PreconditionError", "Presentation",
        "PresentationError", "WalkCapExceeded", "algebra_basis",
        "analyze", "annihilator_generators", "build_graph",
        "build_marked_graph", "canonical_anchored", "circuits_and_sccs",
        "cross_validate", "enumerate_anchored", "export_dot", "export_json",
        "ext_class", "finitely_generated", "generators_up_to",
        "gk_dimension", "global_dimension", "graph_params", "hilbert_series",
        "is_decomposable", "is_dense", "leading_words",
        "left_min_annihilating_suffix", "make_presentation",
        "mark_admissible_edges", "minimal_resolution", "noetherian",
        "parse_presentation", "poincare_table", "report_to_json",
        "serialize_presentation", "validate_minimality", "word_of",
        "yoneda_mul",
    ]
