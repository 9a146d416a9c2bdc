"""The benchmark's reference values against closed forms."""

import math

import numpy as np
import pytest

import reference


def _ou_series(b: float, sigma2: float, kappa: float) -> float:
    """T(0) = (1/kappa) sum_n 2^n B^(2n+2) / ((n+1) (2n+1)!!), B = b sqrt(kappa/sigma2)."""
    big_b2 = b * b * kappa / sigma2
    total, n, double_fact = 0.0, 0, 1.0
    while True:
        term = 2.0**n * big_b2 ** (n + 1) / ((n + 1) * double_fact)
        total += term
        if term < 1e-17 * total:
            return total / kappa
        n += 1
        double_fact *= 2 * n + 1


@pytest.mark.parametrize("b, sigma2, kappa", [(0.5, 0.25, 1.0), (0.5, 0.0625, 1.0), (0.3, 0.02, 2.5), (1.0, 0.5, 0.3)])
def test_ou_mean_exit_time_matches_series(b, sigma2, kappa):
    assert reference.ou_mean_exit_time(b, sigma2, kappa) == pytest.approx(_ou_series(b, sigma2, kappa), rel=1e-10)


def test_ou_mean_exit_time_brownian_limit():
    # kappa -> 0: Brownian motion leaves (-b, b) after b^2 / sigma2 on average
    assert reference.ou_mean_exit_time(0.7, 0.3, 1e-9) == pytest.approx(0.7**2 / 0.3, rel=1e-8)


def test_exit_reference_levels():
    """Continuous and grid-corrected mean exit times of the exit reference levels."""
    h = float(reference.noise_intensity(1.0, math.sqrt(2.0), [1.0, 1.0], 1.0, 1.0))
    assert h == pytest.approx(1.0, rel=1e-14)
    continuous = [reference.ou_mean_exit_time(0.5, g * h) for g in (0.25, 0.125, 0.0625)]
    corrected = [reference.ou_mean_exit_time(reference.corrected_half_width(0.5, g * h, 0.005), g * h)
                 for g in (0.25, 0.125, 0.0625)]
    assert continuous == pytest.approx([1.445, 4.502, 27.43], rel=1e-3)
    assert corrected == pytest.approx([1.621, 5.050, 31.75], rel=1e-3)


def _h(gain):
    return lambda s: reference.noise_intensity(gain(s), math.sqrt(2.0), [1.0, 1.0], 1.0, 1.0)


@pytest.mark.parametrize("y", [-1.0, -0.3, 0.25, 0.8])
def test_quasi_potential_closed_forms(y):
    const = lambda c: (lambda s: np.full(np.shape(s), c))  # noqa: E731
    # H = (1 + g^2) / 2, so V(y) = 4 int_0^y s / (1 + g(s)^2) ds
    assert reference.quasi_potential_1d(y, -1.0, _h(const(1.0))) == pytest.approx(y * y, rel=1e-13)
    assert reference.quasi_potential_1d(y, -1.0, _h(const(0.5))) == pytest.approx(2 * y * y / 1.25, rel=1e-13)
    assert reference.quasi_potential_1d(y, -1.0, _h(lambda s: s)) == pytest.approx(2 * math.log1p(y * y), rel=1e-12)
    assert reference.quasi_potential_1d(y, -2.0, _h(const(1.0))) == pytest.approx(2 * y * y, rel=1e-13)


def test_quasi_potential_of_the_benchmark_gain():
    gain = reference.logistic_clipped(0.5, 1.0, 1.0)
    assert gain(0.0) == 1.0
    v = reference.quasi_potential_1d(0.5, -1.0, _h(gain))
    # g rises from 1 to g(0.5) on [0, 0.5], so V lies between the two constant-gain values
    assert 2 * 0.25 / (1 + gain(0.5) ** 2) < v < 0.25
    assert reference.quasi_potential_1d(0.0, -1.0, _h(gain)) == 0.0
