import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import paneitzlab as pl

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="session")
def ref_params():
    """Unit-sphere convention in dimension five: R = n(n-1) = 20."""
    return pl.derive_coefficients(5, 20)


@pytest.fixture(scope="session")
def ref_grid():
    return pl.SpectralGrid((64,), (TWO_PI,))


@pytest.fixture(scope="session")
def ref_op(ref_params, ref_grid):
    return pl.build_operator(ref_params, ref_grid)


@pytest.fixture(scope="session")
def ref_sobolev(ref_op):
    return pl.sobolev_constant(ref_op)


@pytest.fixture(scope="session")
def mp_params():
    """Curvature scaled so the discrete embedding constant sits near one,
    which keeps the minimax geometry wide open for the source fixture."""
    return pl.derive_coefficients(5, 3.8)


@pytest.fixture(scope="session")
def mp_op(mp_params, ref_grid):
    return pl.build_operator(mp_params, ref_grid)


@pytest.fixture(scope="session")
def mp_sobolev(mp_op):
    return pl.sobolev_constant(mp_op)


@pytest.fixture(scope="session")
def mp_problem(ref_grid):
    return pl.ProblemSpec(
        A=pl.ScalarField.constant(ref_grid, 1.0),
        B=pl.ScalarField.constant(ref_grid, 0.05),
        p=1.5,
        q=2.0,
        mode="source",
    )


@pytest.fixture(scope="session")
def bis_op(ref_grid):
    """Moderate curvature: certificates stay mutually consistent and the
    threshold-coupling probes are cheap."""
    return pl.build_operator(pl.derive_coefficients(5, 5.0), ref_grid)


@pytest.fixture(scope="session")
def bis_sobolev(bis_op):
    return pl.sobolev_constant(bis_op)


def constant_problem(grid, a=1.0, b=1.0, p=3.0, q=2.0, mode="absorption"):
    return pl.ProblemSpec(
        A=pl.ScalarField.constant(grid, a),
        B=pl.ScalarField.constant(grid, b),
        p=p,
        q=q,
        mode=mode,
    )


def _smooth_field(grid, rng, scale=1.0):
    n = grid.npoints
    hat = np.fft.rfft(rng.standard_normal(n))
    hat *= np.exp(-0.5 * np.arange(len(hat)))
    vals = np.fft.irfft(hat, n)
    return scale * vals / max(np.abs(vals).max(), 1e-12)


def random_absorption_fixture(grid, rng):
    """Smooth random A > 0 and B >= 0 with random exponents: one of the
    absorption fixtures that the acceptance criteria 4 and 5 draw (rng 7)."""
    A = pl.ScalarField(grid, np.exp(_smooth_field(grid, rng, 0.7)))
    B = pl.ScalarField(grid, np.abs(_smooth_field(grid, rng, 0.8)))
    p = float(rng.uniform(2.0, 3.5))
    q = float(rng.uniform(1.3, 3.0))
    return pl.ProblemSpec(A=A, B=B, p=p, q=q, mode="absorption")


def sin_psi_operator(params, size, amplitude):
    """1-D operator on ``size`` points of [0, 2 pi) with psi = amplitude sin x.

    From 256 points on, the round-off floor of ``P u`` at a solution of the
    reference problems is above the default residual tolerances.
    """
    grid = pl.SpectralGrid((size,), (TWO_PI,))
    psi = pl.ScalarField(grid, amplitude * np.sin(grid.meshgrid()[0]))
    return pl.build_operator(params, grid, psi=psi)
