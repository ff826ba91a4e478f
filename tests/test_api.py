import mediamod

PUBLIC_NAMES = [
    "BerEstimate",
    "ChannelModel",
    "ConfigError",
    "EnsembleStats",
    "ReceptionDistribution",
    "SwitchingModel",
    "SystemConfig",
    "ValidityReport",
    "__version__",
    "at_tx_distribution",
    "ber_analytic",
    "ber_empirical",
    "empirical_pmf",
    "hit_probability",
    "hit_probability_quadrature",
    "integrate_switching_ode",
    "link_switch_probability",
    "load_config",
    "photon_energy",
    "photon_flux",
    "point_kernel",
    "received_count_pmf",
    "received_distribution",
    "reception_probability",
    "run_ensemble",
    "sample_received_count",
    "serialize_config",
    "state_b_population",
    "switch_probability",
    "switched_distribution",
    "validate_config",
    "validate_static_assumption",
]


def test_public_api_is_pinned():
    # adding or removing a public name must show up as a change to this list
    assert sorted(mediamod.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(mediamod, name) is not None, name
