"""Domain types for panels of categorical trajectories and mixtures of
Markov renewal processes.

Every type validates its structural invariants on construction and is
immutable afterwards (arrays are marked read-only), so instances can be
shared freely between threads.  A :class:`Panel` keeps its trajectories
back to back in flat arrays, checked in one array pass by the sequence
check every :class:`Trajectory` runs.  A :class:`MixtureModel` keeps its
parameters as one :class:`MixtureArrays`, stacked over the components and
checked by :meth:`MixtureArrays.check`; that NamedTuple is also the
unchecked form the EM iterates on.  A panel builds its subjects view on
demand; a model builds its components view once, on first access.
Serialization lives in :mod:`smcmix.dataio`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from numbers import Integral
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .errors import InvalidModelError

# Tolerance for probability vectors / stochastic rows at construction time.
PROB_TOL = 1e-12
# Tolerance for posterior (responsibility) rows.
POSTERIOR_TOL = 1e-10


def is_integer(value) -> bool:
    """True for an integer (numpy's too) that is not a bool: a count or a seed."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_count(name: str, value, least: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer (numpy's too,
    not a bool) of at least ``least``: the rule of every count and seed."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer")
    if value < least:
        raise ValueError(f"{name} must be " + ("nonnegative" if least == 0 else f"at least {least}"))


def index_array(name: str, values, error: type[Exception] = ValueError) -> np.ndarray:
    """A new read-only int64 array of ``values``; raise ``error`` unless numpy
    reads them with an integer dtype (not bools, floats or strings): the rule
    of every array of indices, one test whatever the length.  Empty passes."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" and arr.size:
        raise error(f"{name} must be integers")
    return _frozen_array(arr, np.int64)


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _reduce_through_init(self):
    """Pickle support: rebuild through the constructor, which freezes the
    arrays again (pickle restores them writeable) and re-runs the checks."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidModelError(message)


def _check_sequences(states: np.ndarray, sojourns: np.ndarray, lengths=None) -> None:
    """Invariants of one trajectory, or of trajectories of the given
    ``lengths`` stored back to back (a state repeated across the boundary
    of two of them is no self-transition)."""
    _check(states.ndim == 1 and sojourns.ndim == 1, "states and sojourns must be 1-D")
    _check(states.shape == sojourns.shape, "states and sojourns must have equal length")
    shortest = len(states) if lengths is None else lengths.min()
    _check(shortest >= 2, "a trajectory must visit at least two states")
    # Array methods rather than np.all: every Trajectory runs this on its own.
    # min() propagates NaN, so a NaN sojourn fails the last check.
    _check(states.min() >= 0, "state indices must be nonnegative")
    repeats = states[1:] == states[:-1]
    if lengths is not None:
        repeats[np.cumsum(lengths)[:-1] - 1] = False
    _check(not repeats.any(), "self-transitions are not representable")
    _check(sojourns.min() > 0.0, "sojourn durations must be strictly positive")


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
            _check(is_integer(self.absorbing), "absorbing index must be an integer")
            _check(0 <= self.absorbing < len(labels), f"absorbing index {self.absorbing} out of range")

    @property
    def n_states(self) -> int:
        return len(self.labels)


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
        states = index_array("state indices", self.states, InvalidModelError)
        sojourns = _frozen_array(self.sojourns, np.float64)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "sojourns", sojourns)
        _check_sequences(states, sojourns)

    __reduce__ = _reduce_through_init

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


@dataclass(frozen=True, eq=False, init=False)
class Panel:
    """n subjects, each with B replicated trajectories over a shared space.

    The trajectories are stored back to back: ``states`` and ``sojourns``
    in (subject, replication, position) order, and ``lengths`` (n, B).
    :attr:`subjects` and :meth:`trajectories` are views built on demand.
    """

    space: StateSpace
    states: np.ndarray
    sojourns: np.ndarray
    lengths: np.ndarray

    def __init__(self, space: StateSpace, subjects):
        subjects = [tuple(reps) for reps in subjects]
        b = len(subjects[0]) if subjects else 0
        # A subject-by-subject walk reaches the first subject with another
        # replication count only when every subject before it passes.
        ragged = [i for i, reps in enumerate(subjects) if len(reps) != b]
        head = subjects[: ragged[0]] if ragged else subjects
        trajs = [t for reps in head for t in reps]
        self._store(
            space,
            np.concatenate([t.states for t in trajs] or [[]]),
            np.concatenate([t.sojourns for t in trajs] or [[]]),
            np.reshape([len(t) for t in trajs], (len(head), b)),
        )
        if ragged:
            i = ragged[0]
            raise InvalidModelError(f"subject {i} has {len(subjects[i])} replications, expected {b}")

    def __reduce__(self):
        """Pickle support: rebuild through :meth:`from_arrays`, which freezes
        the arrays again and re-runs the checks."""
        return Panel.from_arrays, (self.space, self.states, self.sojourns, self.lengths)

    @classmethod
    def from_arrays(cls, space: StateSpace, states, sojourns, lengths) -> "Panel":
        """The panel whose trajectories are stored back to back in ``states``
        and ``sojourns``, with lengths ``lengths`` (n, B)."""
        panel = cls.__new__(cls)
        panel._store(space, states, sojourns, lengths)
        return panel

    def _store(self, space, states, sojourns, lengths) -> None:
        """Check the trajectories in one array pass and keep them; the first
        trajectory that fails names its subject."""
        lengths = index_array("trajectory lengths", lengths, InvalidModelError)
        _check(
            lengths.ndim == 2 and lengths.sum() == len(states),
            "trajectory lengths must form an n x B matrix that covers the states",
        )
        n, b = lengths.shape
        _check(n >= 1, "a panel needs at least one subject")
        _check(b >= 1, "every subject needs at least one replication")
        states = index_array("state indices", states, InvalidModelError)
        sojourns = _frozen_array(sojourns, np.float64)
        _check_sequences(states, sojourns, lengths.ravel())
        ends = np.cumsum(lengths)
        starts = ends - lengths.ravel()
        outside = np.maximum.reduceat(states, starts) >= space.n_states
        early = np.zeros_like(outside)  # an absorbing state before the end
        if space.absorbing is not None:
            hits = states == space.absorbing
            hits[ends - 1] = False
            early = np.logical_or.reduceat(hits, starts)
        bad = np.flatnonzero(outside | early)
        if bad.size:
            i = bad[0] // b
            _check(not outside[bad[0]], f"subject {i} references a state outside the space")
            raise InvalidModelError(f"subject {i}: absorbing state may only appear as the final state")
        self.__dict__.update(space=space, states=states, sojourns=sojourns, lengths=lengths)

    @property
    def n_subjects(self) -> int:
        return self.lengths.shape[0]

    @property
    def n_replications(self) -> int:
        return self.lengths.shape[1]

    @property
    def subjects(self) -> tuple[tuple[Trajectory, ...], ...]:
        trajs, b = list(self.trajectories()), self.n_replications
        return tuple(tuple(trajs[i : i + b]) for i in range(0, len(trajs), b))

    def trajectories(self) -> Iterator[Trajectory]:
        ends = np.cumsum(self.lengths).tolist()
        for a, z in zip([0, *ends], ends):
            traj = object.__new__(Trajectory)  # read-only slices, checked by the panel
            traj.__dict__.update(states=self.states[a:z], sojourns=self.sojourns[a:z])
            yield traj

    def __eq__(self, other) -> bool:
        if not isinstance(other, Panel):
            return NotImplemented
        return self.space == other.space and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("lengths", "states", "sojourns")
        )


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

    __reduce__ = _reduce_through_init

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
            _check(is_integer(absorbing), "absorbing index must be an integer")
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


class MixtureArrays(NamedTuple):
    """A mixture's parameters as stacked arrays: the form the EM iterates
    on and :class:`MixtureModel` stores.

    ``weights`` is (G,), ``alpha`` (G, D), ``trans`` (G, D, D), and the
    gamma ``shape`` and ``rate`` are (G, D) with NaN in the absorbing
    column.  Nothing is validated on construction: :meth:`check` enforces
    the invariants of :class:`MixtureModel` and its parts, with their
    messages, and :meth:`MixtureModel.from_arrays` runs it.
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


@dataclass(frozen=True, eq=False, init=False)
class MixtureModel:
    """Mixture weights plus one renewal process per subpopulation, stored
    as one read-only :class:`MixtureArrays`, :attr:`params`.

    :attr:`components` is a view built once, on first access.
    """

    space: StateSpace
    params: MixtureArrays

    def __init__(self, space: StateSpace, weights, components):
        components = tuple(components)
        _check(len(components) >= 1, "a mixture needs at least one component")
        _check(len(weights) == len(components), "one weight per component required")
        for g, comp in enumerate(components):
            _check(comp.n_states == space.n_states, f"component {g} does not match the state space")
            _check(
                comp.absorbing == space.absorbing,
                f"component {g} disagrees with the space about the absorbing state",
            )
        shape, rate = zip(*(comp.sojourn_arrays() for comp in components))
        alpha = [comp.alpha for comp in components]
        trans = [comp.trans for comp in components]
        self._store(space, MixtureArrays(weights, alpha, trans, shape, rate, space.absorbing))

    def __reduce__(self):
        """Pickle support: rebuild through :meth:`from_arrays`."""
        return MixtureModel.from_arrays, (self.space, self.params)

    @classmethod
    def from_arrays(cls, space: StateSpace, params: MixtureArrays) -> "MixtureModel":
        """The model holding a copy of ``params``, shaped for ``space``, with
        NaN in the absorbing column of ``shape`` and ``rate``."""
        model = cls.__new__(cls)
        model._store(space, params)
        return model

    def _store(self, space: StateSpace, params) -> None:
        """Copy (or stack) the arrays of ``params``, check them and freeze them."""
        weights, alpha, trans, shape, rate = (np.array(a, dtype=np.float64) for a in params[:5])
        g, d = weights.size, space.n_states
        _check(g >= 1, "a mixture needs at least one component")
        _check(
            weights.shape == (g,) and alpha.shape == shape.shape == rate.shape == (g, d)
            and trans.shape == (g, d, d),
            "parameter arrays must be shaped (G,), (G, D), (G, D, D), (G, D), (G, D) for D states",
        )
        _check(params.absorbing == space.absorbing,
               "parameters disagree with the space about the absorbing state")
        if space.absorbing is not None:
            shape[:, space.absorbing] = rate[:, space.absorbing] = np.nan
        params = MixtureArrays(weights, alpha, trans, shape, rate, space.absorbing)
        params.check()
        for arr in params[:5]:
            arr.setflags(write=False)
        self.__dict__.update(space=space, params=params)

    @property
    def weights(self) -> np.ndarray:
        return self.params.weights

    @property
    def n_components(self) -> int:
        return len(self.params.weights)

    @cached_property
    def components(self) -> tuple[ComponentParams, ...]:
        p = self.params
        return tuple(
            ComponentParams(alpha, trans, tuple(
                GammaParams(a, b) if ok else None for a, b, ok in zip(shape, rate, p.live.tolist())
            ), p.absorbing)
            for alpha, trans, shape, rate in zip(p.alpha, p.trans, p.shape.tolist(), p.rate.tolist())
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MixtureModel):
            return NotImplemented
        return self.space == other.space and all(
            np.array_equal(a, b, equal_nan=True) for a, b in zip(self.params[:5], other.params[:5])
        )


@dataclass(frozen=True, eq=False)
class PosteriorMatrix:
    """Per-subject component responsibilities; each row sums to one."""

    z: np.ndarray

    __reduce__ = _reduce_through_init

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

    __reduce__ = _reduce_through_init

    def __post_init__(self):
        alpha = _frozen_array(self.alpha, np.float64)
        trans = _frozen_array(self.trans, np.float64)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "trans", trans)
        _check_chains(alpha[None], trans[None], self.absorbing)


def pool_mixture(model: MixtureModel) -> PooledParams:
    """Collapse a mixture into the parameters of its marginal renewal process."""
    p = model.params
    # Summed over components in order, one weighted component at a time.
    alpha = (p.weights[:, None] * p.alpha).sum(axis=0)
    trans = (p.weights[:, None, None] * p.trans).sum(axis=0)
    weights = p.weights.tolist()
    sojourn = tuple(
        tuple((w, GammaParams(a, b)) for w, a, b in zip(weights, shape, rate)) if ok else None
        for shape, rate, ok in zip(p.shape.T.tolist(), p.rate.T.tolist(), p.live.tolist())
    )
    return PooledParams(alpha=alpha, trans=trans, sojourn=sojourn, absorbing=p.absorbing)
