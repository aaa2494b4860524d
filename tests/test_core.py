"""Domain types, constants, unit conventions and the package namespace."""

import ast
import importlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import magcav
from magcav.core import (
    CONSTANTS,
    DEFAULT_GYRO,
    DomainError,
    HybridModel,
    ModeKind,
    OscillatorMode,
    SphereSample,
    gyromagnetic_ratio,
)


def test_constants_positive_and_frozen():
    for name in ("mu0", "eps0", "hbar", "muB", "g_electron"):
        assert getattr(CONSTANTS, name) > 0
    with pytest.raises(Exception):
        CONSTANTS.mu0 = 1.0
    assert math.isclose(CONSTANTS.planck, 6.62607015e-34, rel_tol=1e-9)


def test_gyro_default_range():
    # free-electron slope lands between 27.9 and 28.1 GHz/T
    gamma = gyromagnetic_ratio(CONSTANTS.g_electron)
    assert 27.9e9 <= gamma <= 28.1e9


def test_gyromagnetic_ratio_values():
    assert math.isclose(gyromagnetic_ratio(2.0), 27992489889.297, rel_tol=1e-9)
    assert math.isclose(gyromagnetic_ratio(2.0093), 28122654967.282, rel_tol=1e-9)
    # the empirical default slope corresponds to a Lande factor near 2.01
    assert math.isclose(DEFAULT_GYRO / gyromagnetic_ratio(2.0) * 2.0, 2.0098, rel_tol=1e-4)


@pytest.mark.parametrize("bad", [0.0, -1.0, 10.0, 11.0])
def test_gyromagnetic_ratio_domain(bad):
    with pytest.raises(DomainError):
        gyromagnetic_ratio(bad)


def test_gyromagnetic_ratio_linearity():
    a = gyromagnetic_ratio(1.7)
    assert gyromagnetic_ratio(3.4) == 2.0 * a


def test_oscillator_mode_invariants():
    OscillatorMode(20.9e9, 27e6, ModeKind.CAVITY_BRIGHT)
    OscillatorMode(0.0, 1.1e6, ModeKind.MAGNON)  # zero-field intercept is fine
    with pytest.raises(DomainError):
        OscillatorMode(0.0, 27e6, ModeKind.CAVITY_BRIGHT)
    with pytest.raises(DomainError):
        OscillatorMode(1e6, 27e6, ModeKind.CAVITY_DARK)  # linewidth >= f0
    with pytest.raises(DomainError):
        OscillatorMode(20.9e9, -1.0, ModeKind.CAVITY_BRIGHT)
    with pytest.raises(DomainError):
        OscillatorMode(-1e9, 1e6, ModeKind.MAGNON)


def _two_mode(g=2.05e9):
    return HybridModel.two_mode(
        f_cavity=20.9e9, cavity_fwhm=27e6, magnon_fwhm=1.1e6, g_over_pi=g
    )


def test_hybrid_model_matrix():
    m = _two_mode()
    mat = m.matrix_at(0.743)
    assert mat[0, 1] == mat[1, 0] == 1.025e9  # half-splitting off-diagonal
    assert mat[0, 0] == 20.9e9
    assert math.isclose(mat[1, 1], 0.743 * DEFAULT_GYRO, rel_tol=1e-12)
    assert m.cavity_index == 0
    assert np.array_equal(m.linewidths, [27e6, 1.1e6])


def test_hybrid_model_at_field():
    m = _two_mode()
    snap = m.at_field(0.743)
    assert np.allclose(snap.frequencies_at(0.0), m.frequencies_at(0.743), rtol=1e-15)


def test_frequencies_at_field_array_is_bit_equal_to_scalar_calls():
    m = HybridModel.chain(13.9e9, 33e6, 1.2e6, 143e6, 12.5e6,
                          offset_r=0.651241e9, offset_l=0.651241e9)
    B = np.linspace(0.45, 0.492, 220)
    grid = m.frequencies_at(B)
    assert grid.shape == (220, 3)
    assert grid.tobytes() == np.stack([m.frequencies_at(b) for b in B]).tobytes()
    assert m.frequencies_at(0.743).shape == (3,)
    assert m.matrix_at(B).tobytes() == np.stack([m.matrix_at(b) for b in B]).tobytes()


def test_hybrid_model_rejects_bad_shapes():
    modes = (
        OscillatorMode(20.9e9, 27e6, ModeKind.CAVITY_BRIGHT),
        OscillatorMode(0.0, 1.1e6, ModeKind.MAGNON),
    )
    with pytest.raises(DomainError):
        HybridModel(modes, np.zeros((3, 3)), np.zeros(2))
    with pytest.raises(DomainError):
        HybridModel(modes, np.zeros((2, 2)), np.zeros(3))
    diag = np.array([[1e9, 0.0], [0.0, 0.0]])
    with pytest.raises(DomainError):
        HybridModel(modes, diag, np.zeros(2))
    # magnon-only models cannot be driven
    with pytest.raises(DomainError):
        HybridModel((modes[1],), np.zeros((1, 1)), np.zeros(1))


@given(st.integers(min_value=2, max_value=4), st.data())
@settings(max_examples=100)
def test_hybrid_model_rejects_asymmetry(n, data):
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**31)))
    g = rng.uniform(0.0, 1e9, size=(n, n))
    g = 0.5 * (g + g.T)
    np.fill_diagonal(g, 0.0)
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    j = data.draw(st.integers(min_value=0, max_value=n - 1))
    if i == j:
        j = (i + 1) % n
    g[i, j] += 1.0 + g[i, j] * 1e-6
    modes = tuple(
        OscillatorMode(10e9 + 1e8 * k, 1e6, ModeKind.CAVITY_BRIGHT if k == 0 else ModeKind.MAGNON)
        for k in range(n)
    )
    with pytest.raises(DomainError):
        HybridModel(modes, g, np.zeros(n))


def test_sphere_sample():
    s = SphereSample(0.8e-3, 0.255, 2.1e28, {"M1": 1.1e6})
    assert math.isclose(s.volume, math.pi / 6 * (0.8e-3) ** 3, rel_tol=1e-12)
    assert s.radius == 0.4e-3
    with pytest.raises(DomainError):
        SphereSample(0.0, 0.255, 2.1e28)
    with pytest.raises(DomainError):
        SphereSample(0.8e-3, 1.5, 2.1e28)
    with pytest.raises(DomainError):
        SphereSample(0.8e-3, 0.255, -1.0)


def test_chain_builder_topology():
    m = HybridModel.chain(13.9e9, 33e6, 1.2e6, 143e6, 12.5e6)
    g = m.couplings
    assert g[0, 1] == 143e6 and g[1, 2] == 12.5e6
    assert g[0, 2] == 0.0  # cavity reaches L only through R
    assert m.modes[0].kind is ModeKind.CAVITY_DARK


# the modules whose public names the package re-exports; presets is
# exported as a module of its own
@pytest.mark.parametrize(
    "module", ["core", "modes", "walker", "cavity", "spectra", "estimators", "config"]
)
def test_every_public_name_is_exported_from_the_package(module):
    mod = importlib.import_module(f"magcav.{module}")
    missing = [name for name in mod.__all__
               if getattr(magcav, name, None) is not getattr(mod, name)]
    assert missing == []


_PACKAGE = Path(magcav.__file__).parent


@pytest.mark.parametrize("source", sorted(p.name for p in _PACKAGE.glob("*.py")))
def test_every_imported_name_is_used(source):
    # a name the module lists in __all__, or that the package's __init__
    # imports from its own modules, is there for importers to use
    tree = ast.parse((_PACKAGE / source).read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif (isinstance(node, ast.ImportFrom) and node.module != "__future__"
              and not (source == "__init__.py" and node.level > 0)):
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        unused += [f"{name} (line {node.lineno})" for name in names if name not in used]
    assert unused == []
