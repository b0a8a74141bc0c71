"""Cooperative spectrum sensing with magnitude-ordered sequential LLR fusion."""

__version__ = "0.1.0"

from .bs_thresholds import decide_batch, map_block_batch
from .dp_policy import (
    Action,
    CostMode,
    CostModel,
    PolicyTable,
    concavity_check,
    decision_cost,
    run_policy_batch,
    solve_backward,
    solve_one_threshold,
)
from .fading_link import (
    FadingConfig,
    effective_config,
    gain_threshold,
    participation_pmf,
    participation_prob,
    sample_participants,
)
from .fusion_sim import (
    SimMetrics,
    make_detector,
    run_monte_carlo,
    run_monte_carlo_fading,
    sweep,
)
from .llr_distributions import (
    LlrLaw,
    correction_term,
    exceed_prob,
    law_for_sensor,
    llr_pdf,
)
from .order_stats import SensorEnsemble, ranked_pdf
from .sensing_model import (
    Hypothesis,
    MeasurementModel,
    ScenarioConfig,
    draw_slots,
)
