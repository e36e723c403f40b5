"""Exact counting and classification of fuzzy matrices via their chains of level cuts."""

from .counting import (
    CountRow,
    CountTable,
    SizeVector,
    binomial,
    chain_count,
    chain_count_ie,
    chain_count_rooted,
    chain_counts_by_k,
    count_table,
    flag_count,
    sequence,
    size_vectors,
    term_count,
    total_count,
)
from .cuts import (
    ChainSignature,
    Classification,
    CutChain,
    EquivalenceClass,
    alpha_cut,
    canonical_representative,
    classify_corpus,
    cut_chain,
    equivalent_cuts,
    equivalent_direct,
    k_level,
    reconstruct,
    signature,
    strong_alpha_cut,
)
from .enumeration import (
    ChainRecord,
    HasseDiagram,
    InfeasibleJobError,
    chain_lines,
    count_chains,
    enumerate_chains,
    enumerate_supports,
    group_by_size_vector,
    hasse_export,
    support_label,
)
from .matrices import (
    CrispMatrix,
    FuzzyMatrix,
    bits_to_mask,
    format_value,
    mask_to_bits,
    parse_value,
)

__version__ = "0.1.0"
