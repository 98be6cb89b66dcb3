"""Eliahou-Kervaire type resolutions of stable monomial ideals, their cell
posets, and machine certification of shellability and closed-ball topology."""

from .complexes import FreeComplex
from .ek import AdmissiblePair, admissible_pairs, ek_complex, j_index, modified_complex
from .ideals import (
    MonomialIdeal,
    borel_closure,
    format_ideal,
    parse_ideal,
    random_borel_ideal,
    read_ideal,
)
from .monomials import Monomial
from .polarization import (
    b_shift,
    bpol_monomial,
    bpol_squares,
    column_bound,
    g_shift,
    sigma_ideal,
    sigma_monomial,
    specialize_theta,
    specialize_theta_prime,
    stairs_diagram,
)
from .posets import (
    BOTTOM,
    FinitePoset,
    SimplicialComplexData,
    build_gamma,
    poset_isomorphic,
    poset_to_dot,
)
from .shelling import (
    BallVerdict,
    ELReport,
    ball_check,
    el_label_edge,
    find_shelling,
    is_cw_poset,
    verify_el_all,
)
from .suite import named_ideal, run_suite
from .topology import (
    IntegerChainComplex,
    frame_complex,
    homology_ranks,
    simplicial_chain_complex,
    strand_exactness,
)

__version__ = "0.1.0"
