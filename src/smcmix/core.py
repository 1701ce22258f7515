"""Domain types for panels of categorical trajectories and mixtures of
Markov renewal processes.

Every type validates its structural invariants on construction and is
immutable afterwards (arrays are marked read-only), so instances can be
shared freely between threads.  The one exception is
:class:`MixtureArrays`, the unvalidated array form the EM iterates on,
which checks the same invariants when asked to.  Serialization lives in
:mod:`smcmix.dataio`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .errors import InvalidModelError

# Tolerance for probability vectors / stochastic rows at construction time.
PROB_TOL = 1e-12
# Tolerance for posterior (responsibility) rows.
POSTERIOR_TOL = 1e-10


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidModelError(message)


def _check_chains(alpha: np.ndarray, trans: np.ndarray, absorbing: Optional[int]) -> None:
    """Probability invariants of stacked components, ``alpha`` (G, D) and
    ``trans`` (G, D, D)."""
    n_comp, d = alpha.shape
    _check((alpha >= 0.0).all(), "initial probabilities must be nonnegative")
    _check(
        (np.abs(alpha.sum(axis=1) - 1.0) <= PROB_TOL).all(),
        "initial probabilities must sum to 1",
    )
    diagonal = trans.reshape(n_comp, d * d)[:, :: d + 1]
    _check((diagonal == 0.0).all(), "transition diagonal must be zero")
    _check((trans >= 0.0).all(), "transition probabilities must be nonnegative")
    off_sum = ~(np.abs(trans.sum(axis=2) - 1.0) <= PROB_TOL)
    if absorbing is not None:
        _check((alpha[:, absorbing] == 0.0).all(), "absorbing state cannot be a first state")
        _check((trans[:, absorbing] == 0.0).all(), "absorbing row must be all zero")
        off_sum[:, absorbing] = False
    if off_sum.any():
        j = int(np.argwhere(off_sum)[0, 1])
        raise InvalidModelError(f"transition row {j} must sum to 1")


def _check_weights(weights: np.ndarray) -> None:
    _check((weights > 0.0).all(), "mixture weights must be strictly positive")
    _check(abs(float(weights.sum()) - 1.0) <= PROB_TOL, "mixture weights must sum to 1")


@dataclass(frozen=True)
class StateSpace:
    """Ordered set of attribute labels, optionally with one absorbing state.

    The absorbing state (a terminal marker such as ``"STOP"``) can never be
    a first state and, once entered, is never left.
    """

    labels: tuple[str, ...]
    absorbing: Optional[int] = None

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        _check(len(labels) >= 2, "a state space needs at least two states")
        _check(len(set(labels)) == len(labels), "state labels must be unique")
        if self.absorbing is not None:
            _check(
                0 <= self.absorbing < len(labels),
                f"absorbing index {self.absorbing} out of range",
            )

    @property
    def n_states(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown attribute {label!r}") from None


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One tasting sequence: visited states and their sojourn durations.

    ``states[k]`` is the k-th dominant attribute (index into a state space)
    and ``sojourns[k]`` the strictly positive time spent there, in seconds.
    Consecutive states always differ; sequences with repeats must be merged
    before construction (the ingest layer does this).  When the final state
    is absorbing its sojourn entry is a placeholder that never enters any
    likelihood.  Placement rules for absorbing states are checked by
    :class:`Panel`, which knows the state space.
    """

    states: np.ndarray
    sojourns: np.ndarray

    def __post_init__(self):
        states = _frozen_array(self.states, np.int64)
        sojourns = _frozen_array(self.sojourns, np.float64)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "sojourns", sojourns)
        _check(states.ndim == 1 and sojourns.ndim == 1, "states and sojourns must be 1-D")
        _check(
            states.shape == sojourns.shape,
            "states and sojourns must have equal length",
        )
        _check(len(states) >= 2, "a trajectory must visit at least two states")
        # Array methods rather than np.all: this runs once per trajectory.
        # min() propagates NaN, so a NaN sojourn fails the last check.
        _check(states.min() >= 0, "state indices must be nonnegative")
        _check((states[1:] != states[:-1]).all(), "self-transitions are not representable")
        _check(sojourns.min() > 0.0, "sojourn durations must be strictly positive")

    def __len__(self) -> int:
        return len(self.states)

    @property
    def n_transitions(self) -> int:
        return len(self.states) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return np.array_equal(self.states, other.states) and np.array_equal(
            self.sojourns, other.sojourns
        )


@dataclass(frozen=True, eq=False)
class Panel:
    """n subjects, each with B replicated trajectories over a shared space."""

    space: StateSpace
    subjects: tuple[tuple[Trajectory, ...], ...]

    def __post_init__(self):
        subjects = tuple(tuple(reps) for reps in self.subjects)
        object.__setattr__(self, "subjects", subjects)
        _check(len(subjects) >= 1, "a panel needs at least one subject")
        b = len(subjects[0])
        _check(b >= 1, "every subject needs at least one replication")
        d = self.space.n_states
        absorbing = self.space.absorbing
        for i, reps in enumerate(subjects):
            _check(
                len(reps) == b,
                f"subject {i} has {len(reps)} replications, expected {b}",
            )
            for traj in reps:
                _check(
                    int(traj.states.max()) < d,
                    f"subject {i} references a state outside the space",
                )
                if absorbing is not None:
                    hits = np.flatnonzero(traj.states == absorbing)
                    _check(
                        hits.size == 0 or (hits.size == 1 and hits[0] == len(traj) - 1),
                        f"subject {i}: absorbing state may only appear as the final state",
                    )

    @property
    def n_subjects(self) -> int:
        return len(self.subjects)

    @property
    def n_replications(self) -> int:
        return len(self.subjects[0])

    def trajectories(self) -> Iterator[Trajectory]:
        for reps in self.subjects:
            yield from reps

    def __eq__(self, other) -> bool:
        if not isinstance(other, Panel):
            return NotImplemented
        return self.space == other.space and self.subjects == other.subjects


@dataclass(frozen=True)
class GammaParams:
    """Shape/rate parameterization of a gamma sojourn distribution."""

    shape: float
    rate: float

    def __post_init__(self):
        _check(self.shape > 0.0 and np.isfinite(self.shape), "gamma shape must be positive")
        _check(self.rate > 0.0 and np.isfinite(self.rate), "gamma rate must be positive")

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def variance(self) -> float:
        return self.shape / (self.rate * self.rate)


def _check_prob_vector(v: np.ndarray, what: str) -> None:
    _check(bool(np.all(v >= 0.0)), f"{what} must be nonnegative")
    _check(abs(float(v.sum()) - 1.0) <= PROB_TOL, f"{what} must sum to 1")


@dataclass(frozen=True, eq=False)
class ComponentParams:
    """Parameters of one Markov renewal process.

    ``alpha`` holds initial-state probabilities, ``trans`` the embedded-chain
    transition matrix (zero diagonal; by convention the absorbing row, if
    any, is all zero), and ``sojourn`` one :class:`GammaParams` per state,
    with ``None`` at the absorbing index.
    """

    alpha: np.ndarray
    trans: np.ndarray
    sojourn: tuple[Optional[GammaParams], ...]
    absorbing: Optional[int] = None

    def __post_init__(self):
        alpha = _frozen_array(self.alpha, np.float64)
        trans = _frozen_array(self.trans, np.float64)
        sojourn = tuple(self.sojourn)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "trans", trans)
        object.__setattr__(self, "sojourn", sojourn)

        d = len(alpha)
        _check(d >= 2, "at least two states required")
        _check(trans.shape == (d, d), "transition matrix shape must match alpha")
        _check(len(sojourn) == d, "one sojourn entry per state required")
        absorbing = self.absorbing
        if absorbing is not None:
            _check(0 <= absorbing < d, "absorbing index out of range")
        _check_chains(alpha[None], trans[None], absorbing)
        for j in range(d):
            if j == absorbing:
                _check(sojourn[j] is None, "absorbing state carries no sojourn law")
            else:
                _check(sojourn[j] is not None, f"state {j} needs a sojourn distribution")

    @property
    def n_states(self) -> int:
        return len(self.alpha)

    def sojourn_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Shape and rate vectors with NaN at the absorbing index."""
        shape = np.array(
            [np.nan if p is None else p.shape for p in self.sojourn], dtype=np.float64
        )
        rate = np.array(
            [np.nan if p is None else p.rate for p in self.sojourn], dtype=np.float64
        )
        return shape, rate

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComponentParams):
            return NotImplemented
        return (
            np.array_equal(self.alpha, other.alpha)
            and np.array_equal(self.trans, other.trans)
            and self.sojourn == other.sojourn
            and self.absorbing == other.absorbing
        )


@dataclass(frozen=True, eq=False)
class MixtureModel:
    """Mixture weights plus one :class:`ComponentParams` per subpopulation."""

    space: StateSpace
    weights: np.ndarray
    components: tuple[ComponentParams, ...]

    def __post_init__(self):
        weights = _frozen_array(self.weights, np.float64)
        components = tuple(self.components)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "components", components)
        _check(len(components) >= 1, "a mixture needs at least one component")
        _check(len(weights) == len(components), "one weight per component required")
        _check_weights(weights)
        d = self.space.n_states
        for g, comp in enumerate(components):
            _check(comp.n_states == d, f"component {g} does not match the state space")
            _check(
                comp.absorbing == self.space.absorbing,
                f"component {g} disagrees with the space about the absorbing state",
            )

    @property
    def n_components(self) -> int:
        return len(self.components)

    def arrays(self) -> "MixtureArrays":
        """The parameters stacked into arrays."""
        shape, rate = zip(*(comp.sojourn_arrays() for comp in self.components))
        return MixtureArrays(
            weights=self.weights,
            alpha=np.stack([comp.alpha for comp in self.components]),
            trans=np.stack([comp.trans for comp in self.components]),
            shape=np.stack(shape),
            rate=np.stack(rate),
            absorbing=self.space.absorbing,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MixtureModel):
            return NotImplemented
        return (
            self.space == other.space
            and np.array_equal(self.weights, other.weights)
            and self.components == other.components
        )


class MixtureArrays(NamedTuple):
    """A mixture's parameters as stacked arrays, the form the EM iterates on.

    ``weights`` is (G,), ``alpha`` (G, D), ``trans`` (G, D, D), and the
    gamma ``shape`` and ``rate`` are (G, D) with NaN in the absorbing
    column.  Nothing is validated on construction: :meth:`check` enforces
    the invariants of :class:`MixtureModel` and its parts, with their
    messages, and :meth:`to_model` builds the validated objects.
    """

    weights: np.ndarray
    alpha: np.ndarray
    trans: np.ndarray
    shape: np.ndarray
    rate: np.ndarray
    absorbing: Optional[int] = None

    @property
    def live(self) -> np.ndarray:
        """Mask of the states that carry a sojourn law."""
        return np.arange(self.alpha.shape[1]) != self.absorbing

    def check(self) -> None:
        """Raise :class:`InvalidModelError` unless every gamma law is
        proper, every component a valid renewal process and the weights a
        positive probability vector."""
        live = self.live
        shape, rate = self.shape[:, live], self.rate[:, live]
        _check(((shape > 0.0) & np.isfinite(shape)).all(), "gamma shape must be positive")
        _check(((rate > 0.0) & np.isfinite(rate)).all(), "gamma rate must be positive")
        _check_chains(self.alpha, self.trans, self.absorbing)
        _check_weights(self.weights)

    def to_model(self, space: StateSpace) -> MixtureModel:
        """The validated :class:`MixtureModel` holding these values."""
        d = space.n_states
        components = tuple(
            ComponentParams(
                alpha=self.alpha[g],
                trans=self.trans[g],
                sojourn=tuple(
                    None if j == self.absorbing
                    else GammaParams(shape=float(self.shape[g, j]), rate=float(self.rate[g, j]))
                    for j in range(d)
                ),
                absorbing=self.absorbing,
            )
            for g in range(len(self.weights))
        )
        return MixtureModel(space=space, weights=self.weights, components=components)


@dataclass(frozen=True, eq=False)
class PosteriorMatrix:
    """Per-subject component responsibilities; each row sums to one."""

    z: np.ndarray

    def __post_init__(self):
        z = _frozen_array(self.z, np.float64)
        object.__setattr__(self, "z", z)
        _check(z.ndim == 2, "responsibilities must form an n x G matrix")
        _check(bool(np.all((z >= 0.0) & (z <= 1.0))), "responsibilities must lie in [0, 1]")
        _check(
            bool(np.all(np.abs(z.sum(axis=1) - 1.0) <= POSTERIOR_TOL)),
            "responsibility rows must sum to 1",
        )

    @property
    def n_subjects(self) -> int:
        return self.z.shape[0]

    @property
    def n_components(self) -> int:
        return self.z.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PosteriorMatrix):
            return NotImplemented
        return np.array_equal(self.z, other.z)


@dataclass(frozen=True)
class Violation:
    """One failed identifiability condition.

    ``kind`` is ``"h1-alpha"`` (a zero initial probability), ``"h1-trans"``
    (a zero transition probability) or ``"h2"`` (two components share the
    same sojourn parameters everywhere).
    """

    kind: str
    component: int
    state: Optional[int] = None
    target: Optional[int] = None
    other_component: Optional[int] = None


def validate_h1_h2(model: MixtureModel, strict_eps: float) -> list[Violation]:
    """Report all violations of the positivity (H1) and distinct-sojourn (H2)
    identifiability conditions at tolerance ``strict_eps``.

    An empty list means both conditions hold: every initial and transition
    probability among non-absorbing states exceeds ``strict_eps``, and every
    pair of components differs in at least one sojourn parameter by more
    than ``strict_eps``.
    """
    if strict_eps <= 0:
        raise ValueError("strict_eps must be positive")
    absorbing = model.space.absorbing
    d = model.space.n_states
    live = [j for j in range(d) if j != absorbing]
    out: list[Violation] = []
    for g, comp in enumerate(model.components):
        for j in live:
            if comp.alpha[j] <= strict_eps:
                out.append(Violation("h1-alpha", g, state=j))
        for h in live:
            for j in live:
                if j == h:
                    continue
                if comp.trans[h, j] <= strict_eps:
                    out.append(Violation("h1-trans", g, state=h, target=j))
    for g in range(model.n_components):
        for g2 in range(g + 1, model.n_components):
            a, b = model.components[g], model.components[g2]
            distinct = False
            for j in live:
                pa, pb = a.sojourn[j], b.sojourn[j]
                if (
                    abs(pa.shape - pb.shape) > strict_eps
                    or abs(pa.rate - pb.rate) > strict_eps
                ):
                    distinct = True
                    break
            if not distinct:
                out.append(Violation("h2", g, other_component=g2))
    return out


@dataclass(frozen=True, eq=False)
class PooledParams:
    """Marginal law of a mixture, itself a Markov renewal process.

    Initial and transition probabilities are mixture-weighted averages; the
    sojourn law in each state is a finite mixture of gamma distributions,
    stored as ``(weight, GammaParams)`` pairs (``None`` at the absorbing
    index).
    """

    alpha: np.ndarray
    trans: np.ndarray
    sojourn: tuple[Optional[tuple[tuple[float, GammaParams], ...]], ...]
    absorbing: Optional[int] = None

    def __post_init__(self):
        alpha = _frozen_array(self.alpha, np.float64)
        trans = _frozen_array(self.trans, np.float64)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "trans", trans)
        _check_prob_vector(alpha, "pooled initial probabilities")
        _check(bool(np.all(np.diag(trans) == 0.0)), "pooled diagonal must be zero")
        _check(bool(np.all(trans >= 0.0)), "pooled transitions must be nonnegative")
        row_sums = trans.sum(axis=1)
        for j in range(trans.shape[0]):
            if self.absorbing is not None and j == self.absorbing:
                _check(bool(np.all(trans[j] == 0.0)), "pooled absorbing row must be zero")
                continue
            _check(
                abs(float(row_sums[j]) - 1.0) <= PROB_TOL,
                f"pooled transition row {j} must sum to 1",
            )


def pool_mixture(model: MixtureModel) -> PooledParams:
    """Collapse a mixture into the parameters of its marginal renewal process."""
    pi = model.weights
    alpha = np.zeros(model.space.n_states)
    trans = np.zeros((model.space.n_states, model.space.n_states))
    for w, comp in zip(pi, model.components):
        alpha = alpha + w * comp.alpha
        trans = trans + w * comp.trans
    sojourn = []
    for j in range(model.space.n_states):
        if model.space.absorbing is not None and j == model.space.absorbing:
            sojourn.append(None)
        else:
            sojourn.append(
                tuple((float(w), comp.sojourn[j]) for w, comp in zip(pi, model.components))
            )
    return PooledParams(
        alpha=alpha, trans=trans, sojourn=tuple(sojourn), absorbing=model.space.absorbing
    )


def renormalize_rows(matrix: np.ndarray, absorbing: Optional[int] = None) -> np.ndarray:
    """Rescale each stochastic row to sum to exactly 1 (absorbing row stays zero)."""
    out = np.array(matrix, dtype=np.float64)
    for j in range(out.shape[0]):
        if absorbing is not None and j == absorbing:
            out[j] = 0.0
            continue
        s = out[j].sum()
        if s <= 0:
            raise InvalidModelError(f"row {j} has no mass to renormalize")
        out[j] = out[j] / s
    return out


def renormalize_vector(v: np.ndarray) -> np.ndarray:
    out = np.array(v, dtype=np.float64)
    s = out.sum()
    if s <= 0:
        raise InvalidModelError("vector has no mass to renormalize")
    return out / s
