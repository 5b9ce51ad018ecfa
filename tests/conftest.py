import numpy as np
import pytest

from acbound.entropy_model import ComponentKind, table_for


@pytest.fixture(params=[ComponentKind.LUMINANCE, ComponentKind.CHROMINANCE],
                ids=["lum", "chroma"])
def component(request):
    return request.param


@pytest.fixture
def chroma():
    return table_for(ComponentKind.CHROMINANCE)


@pytest.fixture
def lum():
    return table_for(ComponentKind.LUMINANCE)


@pytest.fixture
def rng():
    return np.random.default_rng(0xAC)
