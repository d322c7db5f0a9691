"""Inversion is pushed to the leaves of a map tree.

inv(o after i) = inv(i) after inv(o), inv(lift g) = lift(inv g) and
inv(inv g) = g, so a Newton inverse only ever wraps a leaf map: no Newton
step runs another Newton solve.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mtcover.coverings import build_stage_inventory
from mtcover.errors import UnsupportedForm
from mtcover.expansion import default_psi
from mtcover.fields import TrigDisplacementField
from mtcover.lifting import NaturalLiftMap, lift_map, tower_from_field
from mtcover.torus_maps import (
    CompositeMap,
    HomothetyMap,
    NewtonInverseMap,
    TrigDisplacementMap,
    compose,
    invert,
)


def cyclic3():
    # x1 += 0.05 sin 2 pi x2, x2 += 0.05 sin 2 pi x3, x3 += 0.05 sin 2 pi x1
    return TrigDisplacementField.from_terms(3, [
        (0.05 * np.eye(3)[i], np.eye(3, dtype=int)[(i + 1) % 3], "sin")
        for i in range(3)
    ])


def tree_nodes(handle):
    yield handle
    if isinstance(handle, CompositeMap):
        yield from tree_nodes(handle.outer)
        yield from tree_nodes(handle.inner)
    elif isinstance(handle, (NewtonInverseMap, NaturalLiftMap)):
        yield from tree_nodes(handle.inner)


def inventory_maps(inventory, tower):
    """Every torus map the inventory holds or builds on demand."""
    maps = list(tower.maps) + list(inventory["F"]._branch_maps)
    for j in range(1, tower.k + 1):
        maps += [tower.isotopy(j).slice_at(s) for s in (0.0, 0.5, 1.0)]
    maps += [inventory["S"].psi.slice_at(s) for s in (0.0, 0.5, 1.0)]
    spaces = {id(sp): sp for st in inventory.values() for sp in (st.source, st.target)}
    for space in spaces.values():
        maps += list(space.gluings) + [space.wrap]
        # the inverses normalize_raw caches, seam by seam (-1: the wrap)
        maps += [space._inverse(i) for i in range(-1, len(space.gluings))]
    return maps


@pytest.mark.parametrize("case", ["mixed-k3", "cyclic3-k2"])
def test_newton_inverses_wrap_only_leaves(case, mixed):
    field, k = (mixed, 3) if case == "mixed-k3" else (cyclic3(), 2)
    tower = tower_from_field(field, k)
    inventory = build_stage_inventory(tower, 1, default_psi(field))
    solves = [node for handle in inventory_maps(inventory, tower)
              for node in tree_nodes(handle) if isinstance(node, NewtonInverseMap)]
    assert solves  # neither field has a closed-form inverse
    nested = [node.describe() for node in solves
              if isinstance(node.inner, (CompositeMap, NaturalLiftMap, NewtonInverseMap))]
    assert not nested


def assert_same_jet(handle, reference, x):
    value, jac = handle.jet(x)
    ref_value, ref_jac = reference.jet(x)
    assert_allclose(value, ref_value, rtol=0, atol=1e-12)
    assert_allclose(jac, ref_jac, rtol=0, atol=1e-12)


def test_flat_inverses_match_newton_on_the_whole_map(mixed, rng):
    # Newton also takes the step computed where its residual test passes, so
    # both sides reach rounding level; stopped at the test, each could be
    # 1e-12 off
    outer = TrigDisplacementMap(mixed)
    # moves both coordinates along x1 + x2: no closed-form inverse either
    inner = TrigDisplacementMap(TrigDisplacementField.from_terms(
        2, [(np.array([0.02, 0.02]), np.array([1, 1]), "sin")]))
    x = rng.uniform(-1, 2, (40, 2))
    composite = compose(outer, inner)
    lifted = lift_map(composite)
    assert isinstance(composite, CompositeMap) and isinstance(lifted, NaturalLiftMap)
    for whole in (composite, lifted):
        assert_same_jet(invert(whole), NewtonInverseMap(whole), x)
    # inv(inv g) is g itself, so it matches Newton on the inverse tree
    flat = invert(composite)
    twice = invert(flat)
    assert twice.outer is outer and twice.inner is inner
    assert_same_jet(twice, NewtonInverseMap(flat), x)


@pytest.mark.parametrize("homothety_outer", [True, False])
def test_inverting_a_composite_with_a_homothety_is_unsupported(mixed, homothety_outer):
    pair = (HomothetyMap(2, 3), TrigDisplacementMap(mixed))
    composite = compose(*pair) if homothety_outer else compose(*pair[::-1])
    with pytest.raises(UnsupportedForm):
        invert(composite)
