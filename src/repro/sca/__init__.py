"""Side-channel analysis: leakage models, CPA/DPA, metrics, harness.

Implements the attack methodology of §6 / Fig. 6: correlation power
analysis (Brier et al., CHES 2004) using the Hamming weight of the S-box
output as the power model, plus the original difference-of-means DPA
(Kocher et al.) and the usual evaluation metrics (key rank, guessing
entropy, measurements-to-disclosure).

Every key-recovery result (CPA, DPA, MLPA, second-order CPA) derives
its best guess, tie-aware rank and verdict from its per-guess scores
through :class:`repro.sca.ranking.KeyRanking`.  An attack succeeds only
when the true key alone holds the top score; MTD and success rate use
the same rule, so a verdict means the same for every key byte.

:mod:`repro.sca.attack` is the end-to-end harness: synthesise the
reduced AES target in a given logic style, collect simulated current
traces through the measurement chain, attack, and score.
"""

from .leakage import hamming_weight, hamming_distance, hw_model, hd_model
from .cpa import cpa_attack, correlation_matrix, CPAResult
from .dpa import dpa_attack, multibit_dpa_attack, DPAResult
from .ranking import tie_aware_rank, tie_width
from .metrics import key_rank, guessing_entropy, success_rate, mtd
from .highorder import (
    MlpaResult,
    centered_product,
    mlpa_attack,
    second_order_cpa,
)
from .ttest import TVLAResult, fixed_vs_random_tvla, welch_t, TVLA_THRESHOLD
from .evolution import CPAEvolution, EvolutionPoint, cpa_evolution
from .acquisition import (
    AcquisitionPool,
    TraceAcquirer,
    acquire_traces,
    validate_plaintexts,
)
from .attack import AttackCampaign, CampaignResult
from .matrix import (
    MatrixCell,
    MatrixReport,
    MatrixSpec,
    run_matrix,
)

__all__ = [
    "hamming_weight",
    "hamming_distance",
    "hw_model",
    "hd_model",
    "cpa_attack",
    "correlation_matrix",
    "CPAResult",
    "dpa_attack",
    "multibit_dpa_attack",
    "DPAResult",
    "tie_aware_rank",
    "tie_width",
    "key_rank",
    "guessing_entropy",
    "success_rate",
    "mtd",
    "MlpaResult",
    "centered_product",
    "mlpa_attack",
    "second_order_cpa",
    "TVLAResult",
    "fixed_vs_random_tvla",
    "welch_t",
    "TVLA_THRESHOLD",
    "CPAEvolution",
    "EvolutionPoint",
    "cpa_evolution",
    "AcquisitionPool",
    "TraceAcquirer",
    "acquire_traces",
    "validate_plaintexts",
    "AttackCampaign",
    "CampaignResult",
    "MatrixCell",
    "MatrixReport",
    "MatrixSpec",
    "run_matrix",
]
