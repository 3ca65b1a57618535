"""One home for the environment's inverse temperature and for delta_b."""
import dataclasses
import inspect

import pytest

from tlsbath import analytics, experiments
from tlsbath.model import BandedEnvironment, ModelParams

_TAKE_BETA = sorted(
    name for name in analytics.__all__
    if inspect.isfunction(getattr(analytics, name))
    and "beta" in inspect.signature(getattr(analytics, name)).parameters
)


def test_the_analytic_maps_take_beta():
    """Every map whose value depends on beta takes it as a parameter."""
    assert _TAKE_BETA == sorted([
        "attractor", "attractor_rho00", "conditional_update", "ensemble_map",
        "offdiag_coeffs", "offdiag_map", "outcome_probabilities",
        "relaxation_constants", "rho00_closed_form", "temperature_bounds",
    ])


@pytest.mark.parametrize("name", [*_TAKE_BETA, "experiments.zeno_scan"])
def test_beta_is_required(name):
    """beta has no default: nothing stands in for the environment's inverse
    temperature when a caller leaves it out."""
    module, _, attr = name.rpartition(".")
    fn = getattr(experiments if module else analytics, attr)
    beta = inspect.signature(fn).parameters["beta"]
    assert beta.default is inspect.Parameter.empty


def test_protocol_and_environment_fields():
    """ModelParams is the simulated protocol and BandedEnvironment the bath's
    structure: neither holds beta, and delta_b lives in ModelParams alone."""
    assert [f.name for f in dataclasses.fields(ModelParams)] == [
        "delta_s", "detuning", "coupling", "dt"]
    assert [f.name for f in dataclasses.fields(BandedEnvironment)] == [
        "n", "model", "degeneracies", "up_blocks"]
