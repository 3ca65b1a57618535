import math

import pytest
from hypothesis import settings

from tlsbath.model import (
    ModelParams,
    QubitState,
    build_band_environment,
    build_spin_environment,
)

# Every property test draws the same examples on every run (derandomize), and
# none is failed for the time one example takes on a loaded machine.
settings.register_profile("tlsbath", derandomize=True, deadline=None)
settings.load_profile("tlsbath")

# One environment of every kind the package builds.
ENV_KINDS = {
    "band": lambda: build_band_environment(6, seed=8),
    "sigma-x": lambda: build_spin_environment(6, seed=8),
}


@pytest.fixture(scope="session")
def resonant_params():
    return ModelParams(delta_s=1.0, detuning=0.0, coupling=0.05, dt=math.pi)


@pytest.fixture(scope="session")
def small_env():
    """Five-spin environment, cheap enough for dense checks."""
    return build_band_environment(5, seed=901)


@pytest.fixture(scope="session")
def seven_env():
    return build_band_environment(7, seed=20451)


@pytest.fixture(scope="session")
def ground():
    return QubitState(rho00=1.0)


@pytest.fixture(scope="session", params=sorted(ENV_KINDS))
def any_env(request):
    return ENV_KINDS[request.param]()
