import numpy as np
import pytest

from mtcover.coverings import build_stage_inventory
from mtcover.expansion import default_psi
from mtcover.fields import TrigDisplacementField, shear_field
from mtcover.lifting import tower_from_field
from mtcover.manifolds import MetricG
from mtcover.torus_maps import TrigDisplacementMap

EPS = 0.1


@pytest.fixture(scope="session")
def shear():
    return shear_field(EPS)


@pytest.fixture(scope="session")
def mixed():
    # x1 += 0.05 sin 2 pi x2, x2 += 0.05 sin 2 pi x1: the terms do not
    # commute, so inverses are Newton solves; tower levels are still the
    # closed-form lifts lift^i(h)
    return TrigDisplacementField.from_terms(2, [
        (np.array([0.05, 0.0]), np.array([0, 1]), "sin"),
        (np.array([0.0, 0.05]), np.array([1, 0]), "sin"),
    ])


@pytest.fixture(scope="session")
def shear_map(shear):
    return TrigDisplacementMap(shear)


@pytest.fixture(scope="session")
def metric(shear_map):
    return MetricG(shear_map)


@pytest.fixture(scope="session")
def psi(shear):
    return default_psi(shear)


@pytest.fixture(scope="session")
def tower1(shear):
    return tower_from_field(shear, 1)


@pytest.fixture(scope="session")
def tower2(shear):
    return tower_from_field(shear, 2)


@pytest.fixture(scope="session")
def inventory(tower1, psi):
    # all stage maps and composites for the shear instance, k=1, m=1
    return build_stage_inventory(tower1, 1, psi)


@pytest.fixture(scope="session")
def inventory_k2(tower2, psi):
    return build_stage_inventory(tower2, 1, psi)


@pytest.fixture(scope="session")
def linear_inventory():
    # eps = 0: every stage map is linear in (t, x)
    field = shear_field(0.0)
    return build_stage_inventory(tower_from_field(field, 1), 1, default_psi(field))


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
