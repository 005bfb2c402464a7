"""infrank: exact-integer toolkit for structured automorphisms of an
infinite-rank free abelian group.

Core objects: ``IntMatrix`` (exact dense matrices with Smith normal form),
the three ``RepAut`` representation classes, group words with re-checkable
certificates, classification procedures (congruence gcd, level sets,
normal-generator dichotomy), and the constructive witness engines.
"""

from .autrep import (
    BlockSpec,
    EventuallyUniform,
    Finitary,
    GradedBlock,
    RepAut,
    compose,
    eventually_uniform,
    finitary,
    graded,
    identity_aut,
    invert,
    uniform,
    window_matrix,
)
from .classify import (
    DivisorsOf,
    FinitePrimes,
    RuleBased,
    UnionWithPrefix,
    common_lambda_level,
    congruence_gcd,
    is_almost_radiation,
    is_normal_generator,
    ladder_report,
    lambda_levels,
    lambda_member,
    nu_set,
    scalar_defect,
)
from .filters import (
    CenteredFamilyReport,
    CounterexampleReport,
    centered_check,
    counterexample_demo,
    graded_construct,
    omega_member,
)
from .intmat import (
    IntMatrix,
    SnfResult,
    complete_to_basis,
    invariant_factors,
    is_unimodular_set,
    snf,
)
from .witness import (
    ShearTriple,
    WitnessChain,
    bezout_combine,
    canonical_shear,
    conjugate_product_reduce,
    euler_reduce,
    factor_block_unitriangular,
    km_pipeline,
    order_n_shear,
    shear_shape,
    tau_power,
    verify_chain,
    wans_sum_certificate,
    wans_three,
    zaushko_commutator,
)
from .words import (
    Certificate,
    Conj,
    Inverse,
    Named,
    Power,
    Product,
    evaluate_word,
    verify_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
