"""periodlines: word periodicity, free-group lines, and periodic
quasi-geodesics on Cayley graphs of concrete groups."""

from .words import border_array, fine_wilf_root, period_lengths, primitive_root
from .freewords import (
    cyclic_reduce,
    free_reduce,
    inverse_word,
    line_window,
    overlap_root,
)
from .backends import (
    DehnBackend,
    FreeBackend,
    FreeProductBackend,
    Presentation,
    make_backend,
    parse_presentation,
    verify_small_cancellation,
)
from .geometry import (
    PathInGraph,
    QuasiParams,
    acylindricity_profile,
    classify_element,
    estimate_delta,
    hausdorff_distance,
    injectivity_radius_estimate,
    neighborhood_contains,
    periodic_line,
    quasi_geodesic_check,
    shortest_conjugate,
    stable_norm_estimate,
)
from .fourgon import FourGon, compose, side_elements, translation_element
from .constants import (
    ConstantsProfile,
    C_and_f,
    F_of_r,
    K_of_r,
    k_trim,
    kappa_eps_zero,
)
from .harness import (
    HarnessResult,
    TheoremInstance,
    commensurability_search,
    empirical_period_threshold,
    lemma41_check,
    main_theorem_check,
    weak_theorem_check,
)

__version__ = "0.1.0"
