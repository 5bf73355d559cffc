"""Online fair division of indivisible goods with prediction advice.

Exact-rational allocators, fairness metrics, adversarial lower-bound
constructions, closed-form accuracy bounds, and a verification harness.
"""

from .core import (
    Allocation,
    FairnessReport,
    Instance,
    NormalizationError,
    PartitionError,
    Rational,
    ValuationProfile,
    ValuationVector,
    cmp_golden,
    cmp_sqrt3,
    decimal_str,
    ef1_factor,
    efx_factor,
    fairness_report,
    oset,
    rat,
    rat_str,
    tv_distance,
    xset,
)
from .offline import (
    BudgetExceededError,
    EnvyGraph,
    brute_force_best_factor,
    cut_and_choose,
    eliminate_envy_cycles,
    envy_graph,
    lpt,
    minimax_online_factor,
    unenvied_agent,
)
from .online import (
    FormKind,
    FormTag,
    FormThresholdAllocator,
    GreedyGoldenThreshold,
    LowestValueBundle,
    OnlineAllocator,
    PredictionFollower,
    ThreeGoodsAllocator,
    classify_form,
    make_allocator,
    passthrough_cutoff,
)
from .adversaries import (
    AdversarySpec,
    ParameterError,
    build_adversary,
)
from .bounds import BoundId, BoundParams, eval_bound, invert_bound, sweep_curves
from .harness import (
    GameTranscript,
    gen_random_instance,
    make_instance,
    perturb,
    replay,
    run_duel,
    run_instance,
)
from .verify import verify_all, verify_claims

__version__ = "0.1.0"
