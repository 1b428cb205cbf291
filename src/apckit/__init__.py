"""Scale-parametrized covers of finite metric spaces.

Builds, combines, and verifies covers witnessing asymptotic-property-C style
conditions on finite windows: products, fiberings, decompositions, tree
covers, free-product word spaces, and weighted group metrics, all backed by
an exact verification engine and an exact minimal-cover solver.
"""

from .metric import (
    ConstructionError,
    Family,
    FiniteMetricSpace,
    InputError,
    generate_space,
    product_space,
    r_components,
    set_diameter,
    validate_metric,
)
from .covers import (
    ApcOracle,
    CoverWitness,
    ScaleSequence,
    WitnessEntry,
    exact_oracle,
    greedy_families_at_scale,
    greedy_oracle,
    grid_oracle,
    interval_oracle,
    min_families_at_scale,
    verify_apc_witness,
)
from .combinators import (
    FiberCoverScheme,
    UniformlyExpansiveMap,
    check_uniformly_expansive,
    decompose,
    fiber_scheme_from_asdim,
    fibering_cover,
    product_cover,
    triangular_index,
)
from .trees import RootedTree, tree_cover, tree_from_edges, tree_oracle
from .freeprod import (
    FreeProductWindow,
    build_v_families,
    component_core,
    cone_window,
    fp_window,
    free_product_cover,
    is_flat,
    qi_check,
    wedge_embed_check,
    wedge_space,
)
from .groups import (
    CayleyWindow,
    FreeGroupModel,
    TableModel,
    WeightedGeneratingSet,
    WindowExhausted,
    ZdModel,
    cayley_ball,
    extension_cover,
    free_product_cover_groups,
    hom_fiber_scheme,
    product_cover_groups,
    projection_fiber_scheme,
    r_stabilizer,
    rho_from_weights,
)

__version__ = "0.1.0"
