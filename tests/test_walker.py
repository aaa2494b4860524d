"""Walker-branch frequencies and the (gyro, Ms) linear fit."""

import math

import numpy as np
import pytest

from magcav.core import DomainError
from magcav.walker import (
    UnderdeterminedError,
    fit_gyro_and_Ms,
    walker_frequency,
    walker_offset,
)


def test_walker_offsets():
    assert walker_offset(1) == 0.0  # Kittel mode: demagnetization cancels
    assert walker_offset(2) == pytest.approx(1.0 / 15.0, rel=1e-15)
    assert walker_offset(5) == pytest.approx(4.0 / 33.0, rel=1e-15)
    # strictly increasing, bounded by 1/6
    offs = [walker_offset(m) for m in range(1, 40)]
    assert np.all(np.diff(offs) > 0)
    assert offs[-1] < 1.0 / 6.0


@pytest.mark.parametrize("bad", [0, -1])
def test_walker_offset_domain(bad):
    with pytest.raises(DomainError):
        walker_offset(bad)


def test_walker_frequency_anchors():
    # Kittel line through the bright-mode crossing
    f1 = walker_frequency(1, 0.743, 0.255, 28.13e9)
    assert math.isclose(f1, 0.743 * 28.13e9, rel_tol=1e-15)
    assert math.isclose(f1, 20.9e9, rel_tol=1e-3)
    # (2,2) prediction lands within 2% of the observed dark crossing
    f2 = walker_frequency(2, 0.471, 0.255, 28.13e9)
    assert math.isclose(f2, 13.72744e9, rel_tol=1e-6)
    assert abs(f2 - 13.9e9) / 13.9e9 < 0.02
    assert walker_frequency(3, 0.0, 0.0, 28e9) == 0.0


def test_walker_frequency_monotone():
    for m in range(1, 6):
        lo = walker_frequency(m, 0.3, 0.255, 28e9)
        hi = walker_frequency(m, 0.4, 0.255, 28e9)
        assert hi > lo
        assert walker_frequency(m + 1, 0.3, 0.255, 28e9) > lo


def test_fit_two_paper_crossings():
    fit = fit_gyro_and_Ms([(1, 0.743, 20.9e9), (2, 0.471, 13.9e9)])
    # two points, two unknowns: exact
    assert fit.residual_rms < 1.0
    assert math.isclose(fit.gyro, 28.129205921938087e9, rel_tol=1e-9)
    assert abs(fit.gyro - 28.13e9) / 28.13e9 < 0.01
    assert math.isclose(fit.mu0_Ms, 0.34722488, rel_tol=1e-6)
    # tension with the quoted 0.255 T stays within 50%
    assert abs(fit.mu0_Ms - 0.255) / 0.255 < 0.5


def test_fit_kittel_only_recovers_slope():
    fit = fit_gyro_and_Ms([(1, 0.5, 14.0e9), (1, 0.75, 21.0e9)])
    assert math.isclose(fit.gyro, 28.0e9, rel_tol=1e-12)
    assert fit.mu0_Ms == 0.0


def test_fit_round_trip_exact():
    gyro, ms = 28.05e9, 0.26
    pts = [(m, B, walker_frequency(m, B, ms, gyro)) for m, B in
           [(1, 0.7), (2, 0.5), (3, 0.45), (5, 0.4)]]
    fit = fit_gyro_and_Ms(pts)
    assert math.isclose(fit.gyro, gyro, rel_tol=1e-9)
    assert math.isclose(fit.mu0_Ms, ms, rel_tol=1e-9)
    assert fit.residual_rms < 1e-3


def test_fit_noisy_round_trip():
    rng = np.random.default_rng(11)
    gyro, ms = 28.1e9, 0.25
    pts = []
    for m, B in [(1, 0.74), (2, 0.47), (3, 0.45), (4, 0.43), (5, 0.41)]:
        f = walker_frequency(m, B, ms, gyro) * (1.0 + 1e-4 * rng.standard_normal())
        pts.append((m, B, f))
    fit = fit_gyro_and_Ms(pts)
    assert abs(fit.gyro - gyro) / gyro < 1e-3
    assert abs(fit.mu0_Ms - ms) / ms < 0.1


def test_fit_rank_deficiency():
    with pytest.raises(UnderdeterminedError):
        fit_gyro_and_Ms([(1, 0.743, 20.9e9)])
    # same-B duplicated non-Kittel rows cannot separate slope from offset
    with pytest.raises(UnderdeterminedError):
        fit_gyro_and_Ms([(2, 0.5, 14e9), (2, 0.5, 14e9)])
    with pytest.raises(UnderdeterminedError):
        fit_gyro_and_Ms([(1, 0.0, 0.0), (1, 0.0, 0.0)])
