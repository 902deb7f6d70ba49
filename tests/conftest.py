import numpy as np
import pytest

import ebsplines as e


@pytest.fixture(scope="session")
def grid1000():
    return e.design_grid(1000)


@pytest.fixture(scope="session")
def family1000(grid1000):
    return e.ModelFamily(grid1000)


@pytest.fixture(scope="session")
def f1_values(grid1000):
    """Range-normalized spectral test signal with (i+1)^-3 cos(2i) coefficients."""
    return e.Generator(kind="f1-spectral").values(grid1000)


@pytest.fixture(scope="session")
def f1_spectrum(family1000, f1_values):
    model = family1000.model(3.0)
    return e.SignalSpectrum(B=model.basis.forward(f1_values))
