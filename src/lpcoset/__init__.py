"""Coset enumeration and subgroup computations for finitely L-presented groups."""

from .coset_enum import (
    CosetTable,
    dump_table,
    merge_coincidences,
    parse_table_dump,
    schreier_generators,
    standardize,
    to_perm_rep,
    todd_coxeter,
    trace,
)
from .errors import (
    GaveUp,
    InputError,
    LowIndexIncomplete,
    LpcosetError,
    ParseError,
    PreconditionError,
    ResourceLimitError,
)
from .perms import (
    ImageGroup,
    Permutation,
    PermutationRep,
    image_group,
    kernel_contained,
    word_image,
)
from .pipeline import (
    EnumerationConfig,
    EnumerationResult,
    InvalidWitness,
    TraceEvent,
    ValidityOutcome,
    cyclic_reduction_pair,
    decide_validity,
    enumerate_cosets,
    fold_invalid,
    fold_to_valid,
    is_valid_perm_rep,
)
from .presentations import (
    FinitePresentation,
    LPresentation,
    SubgroupSpec,
    basilica,
    builtin_presentation,
    burnside,
    grigorchuk,
    load_presentation,
    parse_lpresentation,
    parse_subgroup,
    parse_word,
    parse_words,
)
from .subgroups import (
    FiniteIndexSubgroup,
    SubgroupEntry,
    SubgroupList,
    contains_subgroup,
    core,
    finite_index_subgroup,
    format_csv,
    format_report,
    intersect,
    low_index,
    mark_normal_and_maximal,
    report_json,
    subgroup_equal,
)
from .words import (
    Alphabet,
    FreeEndomorphism,
    Word,
    commutator,
    describe_endo_word,
    free_reduce,
)

__version__ = "0.1.0"
