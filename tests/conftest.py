import numpy as np
import pytest

import fluxcontrol as fc


@pytest.fixture(scope="session")
def karate():
    """Bundled karate club adjacency and its diffusive system."""
    adj = fc.karate_club_adjacency()
    return {"adj": adj, "system": fc.laplacian_system(adj)}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def cold_cli():
    """Each test starts with no system held by the CLI from an earlier run."""
    import fluxcontrol.cli as cli

    cli._held_system = None
