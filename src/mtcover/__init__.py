"""Expanding self-covers of mapping tori over the torus, verified numerically.

The package builds two families of self-covering maps of (multiple) mapping
tori, one expanding along the torus fibers and one along the base circle,
composes them, and checks expansion of the composite on a grid through measured
constants, a mixed-norm cone argument, and an averaged adapted metric.
"""

from .coverings import (
    Preimages,
    build_qm,
    build_stage_inventory,
    differential,
    orbit,
    pi1_linear_part,
    preimages,
    pushforward,
)
from .expansion import (
    AdaptedMetric,
    ConstantsReport,
    ExpansionReport,
    Measurement,
    build_adapted_metric,
    default_psi,
    estimate_C,
    estimate_cq,
    estimate_K,
    estimate_metric_equiv,
    finsler_norm,
    measure_constants,
    verify_expansion,
    verify_finsler_expansion,
    verify_vertical_expansion,
)
from .fields import TrigDisplacementField, shear_field
from .lifting import LiftTower, build_tower, lift_isotopy, lift_map, tower_from_field
from .manifolds import (MetricG, MTPoint, MultiMappingTorus, Sample, Tangent, check_seams,
                        mapping_torus)
from .torus_maps import (
    IsotopyHandle,
    StraightLineIsotopy,
    TorusMapHandle,
    TrigDisplacementMap,
    bridge_isotopy,
    compose,
    compose_isotopy,
)

__version__ = "0.1.0"
