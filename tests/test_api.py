import contextlib
import io
import re
import warnings
from pathlib import Path

import mediamod

README = Path(__file__).resolve().parents[1] / "README.md"

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
    "ber_analytic",
    "ber_empirical",
    "empirical_pmf",
    "hit_probability",
    "hit_probability_quadrature",
    "integrate_switching_ode",
    "link_switch_probability",
    "load_config",
    "photon_flux",
    "received_count_pmf",
    "received_distribution",
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


def test_readme_examples_run():
    # every python block of the README runs as written, warnings as errors,
    # so a renamed or re-signatured public name fails here
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 2
    for block in blocks:
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()) as out:
            warnings.simplefilter("error")
            exec(compile(block, str(README), "exec"), {})
        assert out.getvalue(), block
