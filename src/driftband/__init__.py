"""Online conformal prediction bands for one-step time-series forecasting.

The package wraps one-step point forecasts in distribution-free
prediction bands: plain split conformal, an adaptive variant that steers
its working miscoverage level online, and an aggregated bank of adaptive
experts. Forecasts come from a built-in forecaster, the ``forecast``
argument of ``run_rolling`` or a trace CSV given to ``driftband wrap``.
Synthetic generators and a rolling evaluation harness complete it.
"""

from .conformal import (
    AciState,
    AgAciState,
    ScoreBuffer,
    aci_step,
    aci_update,
    agaci_step,
    agaci_update,
    empirical_quantile,
)
from .datagen import (
    LorenzSpec,
    default_toy_spec,
    generate_lorenz,
    generate_toy,
)
from .errors import AlignmentError, ConfigError, NumericError
from .evaluate import (
    RunConfig,
    RunReport,
    run_rolling,
)
from .forecasters import (
    ArForecaster,
    Forecaster,
    PersistenceForecaster,
    SegmentedArForecaster,
)

__version__ = "0.1.0"

__all__ = [
    "AciState",
    "AgAciState",
    "AlignmentError",
    "ArForecaster",
    "ConfigError",
    "Forecaster",
    "LorenzSpec",
    "NumericError",
    "PersistenceForecaster",
    "RunConfig",
    "RunReport",
    "ScoreBuffer",
    "SegmentedArForecaster",
    "aci_step",
    "aci_update",
    "agaci_step",
    "agaci_update",
    "default_toy_spec",
    "empirical_quantile",
    "generate_lorenz",
    "generate_toy",
    "run_rolling",
]
