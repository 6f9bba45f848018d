"""Exact arithmetic for almost automorphisms of coloured regular trees.

The package models the dense finitely generated subgroup attached to a
permutation group of colours F <= Sym({0,...,d}): elements are tree pairs
with an orbit-respecting leaf bijection, composed, inverted and reduced
exactly.  On top of the element algebra it provides sign homomorphisms,
abelianization via Smith normal form of the orbit graph, the dictionary to
the one-sided shift of finite type on that graph, boundary translation
witnesses, and the exact ball counts, covolume bounds and interval-checked
inequalities behind the lattice (non-)existence results.
"""

from .permutations import (
    ColourGroup,
    DegreeMismatch,
    NotInvariant,
    Permutation,
    closure_enumerate,
    contains_alternating,
    cycle_string,
    from_cycles,
    identity,
    parse_cycles,
    stabilizer_restriction_in_alt,
    structure_report,
    trivial_group,
)
from .tree import (
    CompleteSubtree,
    IncompleteTree,
    PlaneOrder,
    admissible_child_colours,
    check_address,
    is_complete_leafset,
    is_prefix,
    is_valid_address,
    plane_for,
    sphere,
)
from .almost_automorphisms import (
    NotWellDefined,
    OrbitViolation,
    PrefixTooShort,
    SignValue,
    SizeMismatch,
    TreePairElement,
    compose,
    element_from_dict,
    element_from_local_data,
    element_to_dict,
    find_sign_violation,
    identity_element,
    is_sign_well_defined,
    make_element,
    purely_infinite_witness,
    random_element,
    sign,
    translation_element,
)
from .abelianization import (
    AbelianInvariants,
    Abelianization,
    IntMatrix,
    SftGraph,
    bareiss_determinant,
    build_sft_graph,
    dot_export,
    sft_graph_for_group,
    smith_normal_form,
    vf_abelianization,
)
from .shift_model import (
    Bisection,
    InvalidBisection,
    Omega,
    PathError,
    bisection_to_element,
    check_path,
    compose_bisections,
    cylinder_mass,
    edge_length,
    element_to_bisection,
    identity_bisection,
    path_children,
    random_bisection,
    root_paths,
    terminal_orbit,
    validate_bisection,
)
from .covolume import (
    AppendixCounts,
    BallCounts,
    CovolumeChain,
    DominantCompare,
    PrimeWindowReport,
    SmallestVerdict,
    XiClaimsReport,
    appendix_counts,
    ball_counts,
    compositions,
    covolume_chain,
    covolume_table_rows,
    dominant_coefficient_compare,
    integer_partitions,
    kernel_factor,
    log_ratio,
    single_switch_covolume,
    smallest_log_sign,
    verify_prime_windows,
    verify_smallest_inequality,
    verify_xi_claims,
    window_primes,
)
from .intervals import decide_sign, default_precision, interval_width

__version__ = "0.1.0"
