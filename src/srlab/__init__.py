"""srlab: exact combinatorics of Stanley-Reisner rings at desk scale.

Simplicial complexes by facets; reduced homology over GF(p) or Q by
exact boundary ranks; graded Betti tables via Hochster's formula;
Cohen-Macaulay / CM_t / Buchsbaum / Serre predicates via link homology;
chordless-cycle graph theory; and a harness that machine-verifies the
relating theorems over exhaustive small search spaces.
"""

from .complexes import (
    Complex,
    ComplexInfo,
    LinkResult,
    ParseError,
    alexander_dual,
    barycentric_subdivision,
    complex_info,
    cone,
    link,
    minimal_nonfaces,
    parse_complex,
    render_complex,
    restriction,
    skeleton_graph,
)
from .homology import GF2, QQ, FieldSpec, HomologyVector, reduced_homology
from .betti import (
    FULL_LINEARITY,
    BettiTable,
    HomologicalInvariants,
    check_er_shape,
    check_ndp,
    check_subadditivity,
    dual_ideal_table,
    hochster_betti,
    homological_invariants,
    render_betti,
)
from .criteria import (
    ExtDimProfile,
    PropertyReport,
    cm_t,
    ext_dim_profile,
    is_buchsbaum,
    max_serre,
    min_cm_t,
    min_singularity_bound,
    property_report,
    reisner_cm,
    satisfies_serre,
    singularity_dimension_lt,
)
from .graphs import (
    CycleReport,
    Graph,
    chord_condition,
    clique_complex,
    complement,
    independence_complex,
    induced_cycles,
    is_chordal,
    is_cycle_graph,
    parse_graph,
    r_chordal,
    render_graph,
)
from .harness import (
    SearchSpace,
    VerificationResult,
    enumerate_graphs,
    enumerate_pure_complexes,
    register_theorem,
    replay_counterexample,
    theorem_ids,
    verify_theorem,
)

__version__ = "0.1.0"
