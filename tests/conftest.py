import pytest

from spinchain.model import ChainParams


@pytest.fixture
def params5() -> ChainParams:
    """Default 5-qubit chain: J=1, omega0=100, delta_omega=20."""
    return ChainParams(L=5)
