"""Matroid computation workbench.

Rank-oracle matroids with concrete matrix/graph representations, a
canonical exchange format, connectivity and tangle machinery, exhaustive
certified minor searches, and growth-rate verification suites, all at desk
scale with explicit caps.
"""

from .errors import (
    DomainError,
    FormatError,
    GroundSetError,
    MatroidError,
    PreconditionError,
    ReductionDidNotClose,
    ResourceLimitError,
    SerializationError,
)
from .core import (
    GROUND_SET_CAP,
    TABLE_CAP,
    Matroid,
    MinorCertificate,
    Recipe,
    check_size,
    circuits,
    closure,
    contract,
    delete,
    direct_sum,
    dual,
    epsilon,
    independent,
    loops_mask,
    minor_with_map,
    parallel_classes,
    rank_table,
    restriction,
    same_rank_function,
    simplify,
    validate_certificate,
    validate_rank_axioms,
)
from .representations import (
    EvenCycleRep,
    GraphRep,
    LinearRep,
    SignedGraphRep,
    even_cycle,
    from_graph,
    from_matrix,
    has_blocking_pair,
    signed_graphic,
    standard_rep,
)
from .constructions import (
    SpikeDecomposition,
    biclique,
    clique,
    fano,
    free_ext_clique,
    free_extension,
    is_spike,
    n_square,
    n_square_even_cycle_rep,
    n_triangle,
    n_triangle_signed_rep,
    pg32,
    principal_extension,
    spike,
    square_ext,
    triangle_ext,
    truncation,
    uniform,
    whirl,
)
from .exchange import deserialize, dump, load, serialize
from .isomorphism import (
    find_embedding,
    is_isomorphic,
)
from .connectivity import (
    SeparationCertificate,
    connectivity,
    connectivity_mask,
    flats,
    is_modular_flat,
    is_modular_pair,
    is_vertically_k_connected,
    kappa,
    linking_minor,
    local_conn,
)
from .tangles import (
    Tangle,
    TangleCheck,
    clique_minor_tangle,
    induced_tangle,
    is_tangle,
    tangle_matroid,
    tangle_tk,
)
from .minors import (
    ExtensionClass,
    KungReport,
    MembershipRecord,
    classify_clique_extension,
    find_clique_minor,
    has_minor,
    is_graphic,
    kung_bound_check,
    membership_suite,
    spike_split_witness,
)
from .reduction import ReductionResult, reduce_clique_extension
from .suites import (
    CheckRecord,
    GrowthRow,
    SuiteReport,
    growth_table,
    run_suite,
    suite_names,
)

__version__ = "0.1.0"
