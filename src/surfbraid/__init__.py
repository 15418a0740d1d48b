"""Braid groups on compact orientable surfaces, their finite-type filtration,
and chord diagrams with beads, in exact arithmetic."""

from .abelianization import (
    H1Witness,
    TorsionReport,
    degree_one_torsion,
    format_h1,
    format_torsion_report,
    h1_class,
    h1_degree_zero_report,
    h1_nonzero,
    relation_classes_killed,
)
from .braid import (
    Equality,
    Move,
    Relator,
    WreathElement,
    bounded_equal,
    check_braid_word,
    format_perm_cycles,
    is_relator_move,
    parse_braid_word,
    random_relator_rewrite,
    relators,
    strand_permutation,
    wreath_image,
)
from .config import Config, load_config
from .diagrams import (
    CertificateTerm,
    Membership,
    RelationInstance,
    Truncation,
    WreathDiagram,
    chord_generator,
    conjugated_chord,
    degree_one_symbol,
    disk_augmentation,
    disk_nonzero,
    expand_certificate,
    format_certificate,
    format_diagram,
    format_monomial,
    ideal_member,
    parse_diagram,
    parse_monomial,
    relation_instances,
)
from .errors import (
    DimensionMismatchError,
    HypothesisError,
    InvalidGeneratorError,
    ParameterError,
    ParseError,
    ResourceLimitError,
    SurfbraidError,
    TruncationOverflowError,
    UnsupportedDegreeError,
)
from .group_algebra import (
    JSummand,
    desingularize,
    format_algebra_element,
    parse_jexpr,
    parse_singular_word,
)
from .surface import (
    SurfaceParams,
    format_word,
    free_reduce,
    inverse_word,
    parse_word,
    pi1_normalize,
)
from .symplectic import (
    dims_table,
    symp_graded_dim,
    symp_relations,
    symp_twist_redundancy,
    words_of_degree,
)
from .verifier import (
    HYPOTHESIS_NOT_MET,
    OBSTRUCTION_ESTABLISHED,
    VerificationReport,
    format_report,
    verify_nonexistence,
)

__version__ = "0.1.0"
