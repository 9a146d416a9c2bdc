import math

import numpy as np
import pytest

import fastexit as fx

N_MODES = 16


@pytest.fixture(scope="session")
def ref_op():
    return fx.build_neumann_laplacian_1d(N_MODES)


def build_model(
    op,
    f_spec=None,
    g_spec=None,
    sigma_spec=None,
    q_spec=None,
    b_spec=None,
    rho_bar=1.0,
    delta0=1.0,
):
    """The system (an AveragedModel) on op, from catalog specs with defaults."""
    f_spec = f_spec or {"kind": "linear", "slope": -1.0}
    g_spec = g_spec or {"kind": "constant", "value": 1.0}
    sigma_spec = sigma_spec or {"kind": "constant", "value": 1.0}
    q_spec = q_spec or {"kind": "flat", "value": 1.0}
    b_spec = b_spec or {"kind": "list", "values": [1.0, 1.0]}
    return fx.AveragedModel(
        op=op, coeffs=fx.make_coefficient_set(f_spec, g_spec, sigma_spec),
        q_lambdas=fx.make_q_spectrum(q_spec, op.n_modes), b_thetas=fx.make_b_spectrum(b_spec),
        rho_bar=rho_bar, delta0=delta0,
    )


@pytest.fixture(scope="session")
def exit_reference(ref_op):
    """Additive reference system with H = 1: f = -r, g = 1, sigma = 1,
    lambda_k = sqrt(2), theta = (1, 1), rho_bar = 1."""
    return build_model(ref_op, q_spec={"kind": "flat", "value": np.sqrt(2.0)})


def sample_in_domain(dom, n_modes, rng, target_frac=0.9):
    """Random unit field x of n_modes modes scaled along its ray to G = target_frac * r in the exit ball dom.

    The scale t is the positive root of s (t^2 - 2 c t x_0 + c^2) = target_frac * r.
    """
    x = rng.standard_normal(n_modes)
    x /= np.linalg.norm(x)
    b = dom.center * x[0]
    t = b + math.sqrt(b * b - dom.center**2 + target_frac * dom.level / dom.scale)
    return t * x
