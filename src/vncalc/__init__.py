"""Exact computation in the Higman-Thompson groups V_n.

Elements are prefix-replacement homeomorphisms of the n-ary Cantor set in
canonical tree-pair form; all arithmetic is exact.  Submodules:

- ``words``: finite words, eventually periodic points, partition sets
- ``element``: the group elements and their operations
- ``constructions``: named generators, cone embeddings, spinal elements,
  Sidon sets and sequence planning
- ``verify``: machine checks of the algebraic identities
- ``search``: breadth-first subgroup exploration with persistence
- ``expressions`` / ``render`` / ``cli``: the human-facing surface
"""

from .words import (
    EPS,
    Alphabet,
    PartitionSet,
    RationalPoint,
    Word,
    point_normalize,
)
from .element import (
    VnElement,
    apply_point,
    apply_word,
    canonicalize,
    commutator,
    compose,
    conjugate,
    format_element,
    identity,
    invert,
    is_volume_preserving,
    make_element,
    order_bounded,
    parse_element,
    power,
    sign,
    sign_refinement_probe,
    support,
)
from .constructions import (
    AlphaPlan,
    Permutation,
    SidonSet,
    base_involutions,
    dot,
    embed,
    is_sidon,
    make_s_alpha,
    make_t,
    make_tau,
    plan_alpha,
    sidon_generate,
    sigma_dot,
)
from .verify import (
    abelianization_image,
    enumerate_en_group,
    in_maximal_subgroup,
    verify_commutator_trick,
    verify_involution_suite,
    verify_isolation,
    verify_s_alpha_conjugation,
    verify_translation,
)
from .search import Ball, GeneratorSet, find_element, grow_ball, load_ball, save_ball

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
