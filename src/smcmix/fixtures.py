"""Reference chocolate-tasting models and the bundled benchmark designs.

Three single-component renewal processes over ten attributes, estimated on
a chocolate tasting experiment (70% cocoa, a sweeter 70% cocoa, and 90%
cocoa).  The tables below hold their published two-decimal values.  Some
probability rows then do not add up to exactly one; every initial
distribution and transition row is renormalized here, when a component is
built.

This module is the one definition of the bundled designs that
``smcmix simulate`` and ``smcmix bench`` accept by name
(:data:`BUNDLED_SCENARIOS`): ``chocolate70``, ``chocolate70sweet`` and
``chocolate90`` (one component each), ``well_separated`` (70 vs 90) and
``not_well_separated`` (70 vs 70 sweet), the two-component designs mixed
in equal proportions.  :func:`benchmark_scenario` builds any of them.
"""

from __future__ import annotations

import numpy as np

from .core import ComponentParams, GammaParams, MixtureModel, StateSpace
from .sim import Scenario

CHOCOLATE_LABELS = (
    "Astringent",
    "Bitter",
    "Cocoa",
    "Crunchy",
    "Dry",
    "Fatty",
    "Melting",
    "Sour",
    "Sweet",
    "Sticky",
)

_ALPHA = {
    "70": (0.00, 0.00, 0.00, 0.81, 0.03, 0.00, 0.03, 0.00, 0.11, 0.03),
    "70s": (0.00, 0.00, 0.00, 0.75, 0.03, 0.00, 0.11, 0.00, 0.06, 0.06),
    "90": (0.00, 0.03, 0.03, 0.83, 0.08, 0.00, 0.00, 0.03, 0.00, 0.00),
}

_TRANS = {
    "70": (
        (0.00, 0.33, 0.00, 0.00, 0.00, 0.00, 0.00, 0.33, 0.33, 0.00),
        (0.06, 0.00, 0.25, 0.00, 0.00, 0.06, 0.13, 0.06, 0.31, 0.11),
        (0.00, 0.15, 0.00, 0.00, 0.15, 0.09, 0.21, 0.06, 0.27, 0.06),
        (0.00, 0.07, 0.40, 0.00, 0.17, 0.00, 0.03, 0.00, 0.27, 0.07),
        (0.00, 0.15, 0.15, 0.00, 0.00, 0.15, 0.00, 0.15, 0.38, 0.00),
        (0.00, 0.13, 0.38, 0.00, 0.00, 0.00, 0.38, 0.00, 0.13, 0.00),
        (0.00, 0.00, 0.21, 0.00, 0.00, 0.00, 0.00, 0.11, 0.58, 0.11),
        (0.09, 0.36, 0.27, 0.00, 0.00, 0.00, 0.18, 0.00, 0.00, 0.09),
        (0.03, 0.03, 0.28, 0.05, 0.03, 0.08, 0.28, 0.10, 0.00, 0.13),
        (0.00, 0.00, 0.00, 0.10, 0.20, 0.00, 0.20, 0.10, 0.40, 0.00),
    ),
    "70s": (
        (0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 1.00, 0.00, 0.00, 0.00),
        (0.00, 0.00, 0.00, 0.00, 0.00, 1.00, 0.00, 0.00, 0.00, 0.00),
        (0.03, 0.03, 0.00, 0.03, 0.00, 0.23, 0.34, 0.00, 0.34, 0.00),
        (0.00, 0.00, 0.23, 0.00, 0.16, 0.03, 0.10, 0.00, 0.45, 0.03),
        (0.00, 0.00, 0.29, 0.14, 0.00, 0.29, 0.00, 0.00, 0.14, 0.14),
        (0.05, 0.00, 0.36, 0.00, 0.05, 0.00, 0.27, 0.00, 0.23, 0.05),
        (0.00, 0.00, 0.25, 0.04, 0.00, 0.18, 0.00, 0.00, 0.54, 0.00),
        (0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 1.00, 0.00, 0.00, 0.00),
        (0.00, 0.00, 0.46, 0.02, 0.00, 0.17, 0.22, 0.02, 0.00, 0.10),
        (0.00, 0.00, 0.12, 0.00, 0.00, 0.38, 0.12, 0.00, 0.38, 0.00),
    ),
    "90": (
        (0.00, 0.53, 0.00, 0.00, 0.00, 0.18, 0.00, 0.06, 0.00, 0.24),
        (0.19, 0.00, 0.30, 0.00, 0.11, 0.14, 0.07, 0.04, 0.09, 0.07),
        (0.00, 0.48, 0.00, 0.03, 0.10, 0.07, 0.17, 0.00, 0.03, 0.10),
        (0.06, 0.29, 0.13, 0.00, 0.32, 0.13, 0.03, 0.00, 0.00, 0.03),
        (0.23, 0.55, 0.18, 0.00, 0.00, 0.00, 0.00, 0.05, 0.00, 0.00),
        (0.17, 0.44, 0.06, 0.00, 0.00, 0.00, 0.22, 0.00, 0.00, 0.11),
        (0.14, 0.57, 0.14, 0.00, 0.00, 0.07, 0.00, 0.00, 0.00, 0.07),
        (0.20, 0.60, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.20),
        (0.00, 0.17, 0.50, 0.00, 0.00, 0.17, 0.17, 0.00, 0.00, 0.00),
        (0.25, 0.50, 0.00, 0.08, 0.00, 0.08, 0.08, 0.00, 0.00, 0.00),
    ),
}

_GAMMA_SHAPE = {
    "70": (1.90, 1.38, 1.53, 2.83, 2.12, 1.78, 1.72, 1.18, 1.73, 3.45),
    "70s": (1.76, 1.69, 1.30, 2.04, 1.87, 1.50, 1.51, 1.69, 2.28, 3.51),
    "90": (1.86, 1.52, 1.67, 2.40, 2.05, 3.29, 2.88, 1.73, 3.86, 3.70),
}

_GAMMA_RATE = {
    "70": (0.29, 0.21, 0.21, 0.41, 0.38, 0.21, 0.35, 0.15, 0.26, 0.77),
    "70s": (0.14, 0.25, 0.20, 0.32, 0.33, 0.22, 0.22, 0.25, 0.31, 0.62),
    "90": (0.20, 0.20, 0.27, 0.50, 0.27, 0.81, 0.70, 0.21, 1.45, 0.63),
}


def chocolate_space() -> StateSpace:
    return StateSpace(labels=CHOCOLATE_LABELS)


def _component(key: str) -> ComponentParams:
    alpha = np.asarray(_ALPHA[key], dtype=np.float64)
    alpha = alpha / alpha.sum()
    trans = np.asarray(_TRANS[key], dtype=np.float64)
    trans = trans / trans.sum(axis=1, keepdims=True)
    sojourn = tuple(
        GammaParams(shape=a, rate=r)
        for a, r in zip(_GAMMA_SHAPE[key], _GAMMA_RATE[key])
    )
    return ComponentParams(alpha=alpha, trans=trans, sojourn=sojourn)


# Each bundled design: the published components it mixes in equal proportions.
_DESIGNS = {
    "chocolate70": ("70",),
    "chocolate70sweet": ("70s",),
    "chocolate90": ("90",),
    "well_separated": ("70", "90"),
    "not_well_separated": ("70", "70s"),
}

BUNDLED_SCENARIOS = tuple(_DESIGNS)


def _model(name: str) -> MixtureModel:
    keys = _DESIGNS[name]
    return MixtureModel(
        space=chocolate_space(),
        weights=np.full(len(keys), 1 / len(keys)),
        components=tuple(_component(key) for key in keys),
    )


def chocolate_70() -> ComponentParams:
    return _component("70")


def chocolate_70_sweet() -> ComponentParams:
    return _component("70s")


def chocolate_90() -> ComponentParams:
    return _component("90")


def one_component_model() -> MixtureModel:
    return _model("chocolate70")


def well_separated_model() -> MixtureModel:
    """Two clearly distinct subpopulations: 70% and 90% cocoa."""
    return _model("well_separated")


def not_well_separated_model() -> MixtureModel:
    """Two similar subpopulations: the two 70% cocoa chocolates."""
    return _model("not_well_separated")


def benchmark_scenario(
    name: str,
    n_subjects: int = 200,
    n_replications: int = 3,
    transitions: int = 10,
    seed: int = 2024,
    replicate_count: int = Scenario.replicate_count,
) -> Scenario:
    """Desk-scale benchmark design for one of the :data:`BUNDLED_SCENARIOS`;
    the defaults are the design ``smcmix`` runs for the bare name."""
    if name not in _DESIGNS:
        raise KeyError(f"unknown scenario {name!r}; available: {list(BUNDLED_SCENARIOS)}")
    return Scenario(
        model=_model(name),
        n_subjects=n_subjects,
        n_replications=n_replications,
        stop_rule=transitions,
        seed=seed,
        replicate_count=replicate_count,
        name=name,
    )
