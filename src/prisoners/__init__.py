"""Exact-rational simulator and verifier for infinite priced-box games.

Every quantity is an exact rational; every verdict is a zero-tolerance
comparison.  The usual entry points:

    >>> from prisoners import builtin_model, build_baseline_geometric
    >>> from prisoners import random_plan, simulate
    >>> model = builtin_model("geometric")
    >>> report = simulate("V1a", model, build_baseline_geometric(),
    ...                   random_plan(40, 5, seed=0), 40)
    >>> report.verdict
    'PatternConfirmed'
"""
from .errors import (
    CapabilityError, DomainError, EmptyRangeError, HorizonExhaustedError,
    NotMaterializedError, PlanViolationError, PrisonersError,
    UndecidedComparisonError, UsageError,
)
from .numeric import BACKEND, ONE, Rat, ZERO, rat, rat_str
from .sequences import (
    AllocationPlan, BlackBoxModel, BracketedTotal, CustomModel,
    DivergentTotal, ExactTotal, GeometricTail, HarmonicModel, PermutedModel,
    PriceModel, Relabeling, ScaledModel, TableAllocation, UnknownTotal,
    WeightedCert, ZeroTail, builtin_model, descending_rearrangement,
    load_allocation, load_model, omit_zeros, quasi_descending_rearrangement,
    weighted_partial_sum,
)
from .permutations import (
    Cycle, CyclePlan, dump_plan, parse_plan, random_bounded_diameter_plan,
    random_plan,
)
from .strategies import (
    StrategyDescriptor, build_baseline_geometric,
    build_bounded_diameter_strategy, build_bounded_length_strategy,
    build_cycle_informed_strategy, build_tail_sum_strategy,
    build_v2_strategy,
)
from .adversaries import (
    divergence_witness, good_index_adversary, scaled_harmonic_gap,
    two_cycle_adversary, v1b_ceiling_adversary, v1d_cycle_chooser,
    v2a_block_adversary, v2b_block_adversary,
)
from .analyzer import (
    ExistenceVerdict, analysis_tsv, brute_force_min, check_zero_omission,
    cycle_notation, decide_existence, descending_partial_dominance,
)
from .engine import (
    NO_CLAIM, VARIANTS, AboveThreshold, AllMembersFail, AnchorFails,
    BuilderClaim, CycleMembers, FailureInEveryCycle, GuardClaim, LastMember,
    LeastMember, MaxPriceMember, NoClaim, NoSuccessAfterFirst,
    PrisonerOutcome, ReleaseVerdict, SimulationReport, Variant,
    evaluate_release, get_variant, run_prisoner, simulate,
)
from .registry import THEOREM_KEYS, VerificationReport, verify_theorem

__version__ = "0.1.0"
