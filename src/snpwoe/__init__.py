"""Weight of evidence for single-source SNP genotype comparisons.

Compares a trace-sample genotype profile against a reference profile under
"same donor" vs "different donors" hypotheses, where each sample was
genotyped with its own (possibly unknown) error probability. Provides the
exact fixed-error likelihood ratio, prior-integrated and profile-likelihood
treatments of an unknown trace error probability, maximum likelihood
estimation of an error probability from duplicate genotyping runs, and
seeded simulation studies of all of the above.
"""

from .estimation import PairCountTable, estimate_w_mle, estimate_w_mle_per_marker
from .evidence import CaseData, DegenerateCaseError, MarkerObservation, woe_known
from .genotypes import hwe_priors
from .scaled_beta import ScaledBeta
from .study import (
    OverdispersionConfig,
    PriorSpec,
    StudyConfig,
    run_overdispersion_study,
    run_woe_study,
    summarize_overdispersion,
)
from .unknown_w import (
    QuadratureError,
    WoEResult,
    woe_integrate_mc,
    woe_integrate_quad,
    woe_plugin,
    woe_profile,
)

__version__ = "0.1.0"
