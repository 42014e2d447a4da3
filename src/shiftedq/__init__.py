"""Exact l-weight / q-character combinatorics of shifted quantum affine
algebras and their truncations."""

from .cartan import CartanData, build_cartan, invert_quantum_cartan, quantum_cartan
from .kernel import BACKEND
from .lweight import (
    LWeightMonomial,
    equal_mod_signtwist,
    factor_in_basis,
    generator,
    is_dominant,
    leq,
)
from .qchar import (
    QCharacter,
    check_identity,
    check_triangularity,
    qc_closed_form,
    qc_frenkel_mukhin,
    qc_mul,
    qc_neg_prefund_limit,
    qc_simple_sl2,
)
from .modrep import build_module, check_coproduct, check_relations, t_series_ratio
from .truncation import (
    Candidate,
    TruncationData,
    abar_eigenvalue,
    descent_refine,
    enumerate_candidates,
    fuse_truncations,
    maint_check,
    sl2_classify,
    truncation_shifts,
)
from .langlands import (
    chi_L_fundamental,
    chi_L_standard,
    conjecture_report,
    psi_of_monomial,
    truncfd_Z_for,
)

__version__ = "0.1.0"
