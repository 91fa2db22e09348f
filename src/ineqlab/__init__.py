"""f-inequality measures and their redundancy/synergy attribute decomposition."""

from .errors import (
    DegeneratePopulation,
    EmptyPopulation,
    IneqError,
    InfiniteMeasure,
    InvalidMeasure,
    NegativeComponent,
    TooManyAttributes,
    TransformDomainError,
    UnknownAttribute,
)
from .measures import (
    Generator,
    MeasureSpec,
    atkinson,
    atkinson_transform,
    custom,
    ge,
    inequality,
    mld,
    parse_measure,
    pietra,
    r_fp,
    theil,
)
from .population import (
    Dataset,
    WeightedColumns,
    bottom,
    group_by,
    grouped_columns,
    population_matrix,
)
from .zonogon import (
    OrderRelation,
    Zonogon,
    canonical_chain,
    meet,
    meet_all,
    minkowski_sum,
    order,
)
from .decomposition import (
    DecompositionResult,
    LatticeNode,
    SubgroupResult,
    atkinson_decompose,
    cumulative,
    decompose,
    redundancy_lattice,
    subgroup_decompose,
)
from .shapley import game_synergy, game_value, shapley_values

__version__ = "0.1.0"
