"""Quasi-isometric graph simplification toolkit.

Builds distance-approximating simplifications of connected graphs
(independent-set derived graphs, quotient partition-graphs, outward
contraction of trees, cardinality-weighted partition-trees) and verifies
their distortion, center and median guarantees exactly at desk scale.
"""

from .contraction import (
    RootedTree,
    composition_center_shift,
    composition_partition,
    first_center_shifting_root,
    outward_contraction,
    restrict_to_path,
    root_tree,
    turning_point,
    unbounded_shift_family,
)
from .generators import (
    complete_graph,
    cycle_graph,
    non_uniecc_chordal,
    path_graph,
    random_connected_graph,
    random_partition,
    random_tree,
    star_graph,
)
from .graph import (
    CheckResult,
    EccentricityProfile,
    Graph,
    bfs_distances,
    center,
    diameter_path,
    distance,
    distance_matrix,
    distance_sum,
    eccentricity_profile,
    median,
    set_distance,
    uni_ecc_holds,
)
from .mis import MisResult, greedy_mis, mis_derived, verify_mis_bounds
from .partition import (
    Partition,
    PartitionGraph,
    SharpnessReport,
    build_partition_graph,
    collapse_basic,
    collapse_modified,
    sharpness_report,
    singleton_partition,
    verify_partition_qiso,
)
from .quasi import (
    CenterShiftReport,
    QuasiIsometryConstants,
    VertexMapping,
    center_shift,
    identity_mapping,
    minimal_additive_for_stretch,
    minimal_constants,
    shift_bound_one_sided,
    shift_bound_two_sided,
    verify_ecc_transfer,
    verify_q1,
    verify_q2,
    verify_q2_raw,
)
from .weighted import (
    WeightedGraph,
    locate_median_via_partition,
    median_preserved,
    subset_weight,
    subtree_side,
    subtree_split_check,
    weighted_distance_sum,
    weighted_median,
    weighted_partition_tree,
)

__version__ = "0.1.0"
