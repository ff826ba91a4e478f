"""
Analytical models and particle-based simulation for a media-modulation
molecular communication link: photochemical switching at the transmitter,
diffusion-advection transport to a transparent counting receiver, binomial
reception statistics, and the resulting one-shot bit error rate.

``scipy.special`` is imported inside the three functions that call it
(``hit_probability``, ``received_count_pmf``, ``ber_analytic``), not at
package import: it is most of the package's import time, and commands that
evaluate no closed form (``validate``, ``switching-curve``, ``--help``,
config errors) never need it.
"""

from .config import (
    ConfigError,
    SystemConfig,
    ValidityReport,
    load_config,
    serialize_config,
    validate_config,
    validate_static_assumption,
)
from .photochem import (
    SwitchingModel,
    integrate_switching_ode,
    photon_flux,
    state_b_population,
    switch_probability,
)
from .channel import (
    ChannelModel,
    hit_probability,
    hit_probability_quadrature,
)
from .stats import (
    ReceptionDistribution,
    link_switch_probability,
    received_count_pmf,
    received_distribution,
    sample_received_count,
    switched_distribution,
)
from .detect import (
    BerEstimate,
    ber_analytic,
    ber_empirical,
)
from .pbs import (
    EnsembleStats,
    empirical_pmf,
    run_ensemble,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "SystemConfig",
    "ValidityReport",
    "load_config",
    "serialize_config",
    "validate_config",
    "validate_static_assumption",
    "SwitchingModel",
    "integrate_switching_ode",
    "photon_flux",
    "state_b_population",
    "switch_probability",
    "ChannelModel",
    "hit_probability",
    "hit_probability_quadrature",
    "ReceptionDistribution",
    "link_switch_probability",
    "received_count_pmf",
    "received_distribution",
    "sample_received_count",
    "switched_distribution",
    "BerEstimate",
    "ber_analytic",
    "ber_empirical",
    "EnsembleStats",
    "empirical_pmf",
    "run_ensemble",
    "__version__",
]
