import dataclasses
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcmix import (
    ComponentParams,
    GammaParams,
    InvalidModelError,
    MixtureArrays,
    MixtureModel,
    Panel,
    PooledParams,
    PosteriorMatrix,
    StateSpace,
    Trajectory,
    pool_mixture,
    validate_h1_h2,
)
from smcmix import fixtures
from smcmix.sim import simulate_trajectory

from conftest import make_component, traj


class TestStateSpace:
    def test_needs_two_states(self):
        with pytest.raises(InvalidModelError):
            StateSpace(labels=("A",))

    def test_labels_unique(self):
        with pytest.raises(InvalidModelError):
            StateSpace(labels=("A", "A"))

    def test_absorbing_range(self):
        with pytest.raises(InvalidModelError):
            StateSpace(labels=("A", "B"), absorbing=5)

    def test_index(self):
        s = StateSpace(labels=("A", "B"))
        assert s.index("B") == 1
        with pytest.raises(KeyError):
            s.index("C")


class TestTrajectory:
    """Each invariant fails with its own message, in the order checked."""

    def test_one_dimensional(self):
        with pytest.raises(InvalidModelError, match="^states and sojourns must be 1-D$"):
            traj([[0, 1], [1, 0]], [[1.0, 1.0], [1.0, 1.0]])

    def test_min_length(self):
        with pytest.raises(InvalidModelError, match="^a trajectory must visit at least two states$"):
            traj([0], [1.0])

    def test_nonnegative_states(self):
        with pytest.raises(InvalidModelError, match="^state indices must be nonnegative$"):
            traj([0, -1, 0], [1.0, 1.0, 1.0])

    def test_no_self_transition(self):
        with pytest.raises(InvalidModelError, match="^self-transitions are not representable$"):
            traj([0, 1, 1], [1.0, 1.0, 1.0])

    def test_positive_sojourns(self):
        with pytest.raises(
            InvalidModelError, match="^sojourn durations must be strictly positive$"
        ):
            traj([0, 1], [1.0, 0.0])

    def test_nan_sojourn(self):
        with pytest.raises(
            InvalidModelError, match="^sojourn durations must be strictly positive$"
        ):
            traj([0, 1, 0], [1.0, np.nan, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(InvalidModelError, match="^states and sojourns must have equal length$"):
            traj([0, 1], [1.0])

    def test_immutable(self):
        t = traj([0, 1], [1.0, 2.0])
        with pytest.raises(ValueError):
            t.states[0] = 1


class TestPanel:
    def test_uniform_replications(self, two_state_space):
        with pytest.raises(InvalidModelError, match="^subject 1 has 2 replications, expected 1$"):
            Panel(
                space=two_state_space,
                subjects=(
                    (traj([0, 1], [1, 1]),),
                    (traj([0, 1], [1, 1]), traj([1, 0], [1, 1])),
                ),
            )

    def test_state_in_space(self, two_state_space):
        with pytest.raises(
            InvalidModelError, match="^subject 0 references a state outside the space$"
        ):
            Panel(space=two_state_space, subjects=((traj([0, 2], [1, 1]),),))

    def test_absorbing_only_final(self, absorbing_space):
        with pytest.raises(
            InvalidModelError,
            match="^subject 0: absorbing state may only appear as the final state$",
        ):
            Panel(space=absorbing_space, subjects=((traj([2, 0], [1, 1]),),))
        # final position is fine
        Panel(space=absorbing_space, subjects=((traj([0, 2], [1, 1]),),))

    def test_needs_subjects_and_replications(self, two_state_space):
        with pytest.raises(InvalidModelError, match="^a panel needs at least one subject$"):
            Panel(space=two_state_space, subjects=())
        with pytest.raises(
            InvalidModelError, match="^every subject needs at least one replication$"
        ):
            Panel(space=two_state_space, subjects=((), (traj([0, 1], [1, 1]),)))


def _walk_subjects(space, subjects):
    """Reference copy of the subject-by-subject checks a panel ran while it
    stored its trajectories per subject: the oracle of the array pass."""
    subjects = tuple(tuple(reps) for reps in subjects)
    if len(subjects) < 1:
        raise InvalidModelError("a panel needs at least one subject")
    b = len(subjects[0])
    if b < 1:
        raise InvalidModelError("every subject needs at least one replication")
    d = space.n_states
    absorbing = space.absorbing
    for i, reps in enumerate(subjects):
        if len(reps) != b:
            raise InvalidModelError(f"subject {i} has {len(reps)} replications, expected {b}")
        for t in reps:
            if int(t.states.max()) >= d:
                raise InvalidModelError(f"subject {i} references a state outside the space")
            if absorbing is not None:
                hits = np.flatnonzero(t.states == absorbing)
                if not (hits.size == 0 or (hits.size == 1 and hits[0] == len(t) - 1)):
                    raise InvalidModelError(
                        f"subject {i}: absorbing state may only appear as the final state"
                    )


def _message(build):
    try:
        build()
    except InvalidModelError as exc:
        return str(exc)
    return None


@st.composite
def _panel_cases(draw):
    """Small panels that often break a panel rule: a state index equal to
    the state count (outside the space), an absorbing state anywhere, or a
    subject with one replication more or less than the first."""
    d = draw(st.integers(2, 4))
    space = StateSpace(labels=tuple("ABCD"[:d]), absorbing=draw(st.sampled_from([None, d - 1])))
    b = draw(st.integers(1, 3))
    subjects = []
    for _ in range(draw(st.integers(1, 6))):
        reps = []
        for _ in range(draw(st.sampled_from([b, b, b, b + 1, b - 1]))):
            states = [draw(st.integers(0, d))]
            for _ in range(draw(st.integers(1, 4))):
                states.append(draw(st.integers(0, d).filter(lambda j, s=states[-1]: j != s)))
            reps.append(traj(states, np.ones(len(states))))
        subjects.append(tuple(reps))
    return space, subjects


class TestFlatPanel:
    """A panel stores its trajectories back to back and checks them in one
    array pass."""

    @settings(max_examples=400, deadline=None)
    @given(_panel_cases())
    def test_array_pass_names_the_subject_the_walk_names(self, case):
        space, subjects = case
        expected = _message(lambda: _walk_subjects(space, subjects))
        assert _message(lambda: Panel(space, subjects)) == expected
        counts = {len(reps) for reps in subjects}
        if len(counts) == 1:
            trajs = [t for reps in subjects for t in reps]
            flat = (
                space,
                [j for t in trajs for j in t.states],
                [x for t in trajs for x in t.sojourns],
                np.reshape([len(t) for t in trajs], (len(subjects), counts.pop())),
            )
            assert _message(lambda: Panel.from_arrays(*flat)) == expected

    @pytest.mark.parametrize(
        "states, sojourns, lengths, message",
        [
            ([[0, 1], [1, 0]], [[1.0, 1.0], [1.0, 1.0]], [[2]], "states and sojourns must be 1-D"),
            ([0, 1, 0, 1], [1.0, 1.0, 1.0], [[2, 2]], "states and sojourns must have equal length"),
            ([0, 1, 0], [1.0, 1.0, 1.0], [[2, 1]], "a trajectory must visit at least two states"),
            ([0, -1, 0, 1], [1.0] * 4, [[2, 2]], "state indices must be nonnegative"),
            ([0, 1, 1, 0], [1.0] * 4, [[4]], "self-transitions are not representable"),
            ([0, 1, 1, 0], [1.0, 0.0, 1.0, 1.0], [[2, 2]],
             "sojourn durations must be strictly positive"),
            ([0, 1, 1, 0], [1.0, 1.0, np.nan, 1.0], [[2, 2]],
             "sojourn durations must be strictly positive"),
            ([0, 1, 1, 0], [1.0] * 4, [[2, 1]],
             "trajectory lengths must form an n x B matrix that covers the states"),
            ([0, 1, 1, 0], [1.0] * 4, [2, 2],
             "trajectory lengths must form an n x B matrix that covers the states"),
            ([], [], np.zeros((0, 2)), "a panel needs at least one subject"),
            ([], [], np.zeros((2, 0)), "every subject needs at least one replication"),
        ],
    )
    def test_from_arrays_messages(self, two_state_space, states, sojourns, lengths, message):
        with pytest.raises(InvalidModelError, match=f"^{message}$"):
            Panel.from_arrays(two_state_space, states, sojourns, lengths)

    def test_repeat_across_a_trajectory_boundary_is_legal(self, two_state_space):
        panel = Panel.from_arrays(two_state_space, [0, 1, 1, 0], [1.0, 2.0, 3.0, 4.0], [[2, 2]])
        assert [t.states.tolist() for t in panel.trajectories()] == [[0, 1], [1, 0]]

    def test_subjects_constructor_matches_from_arrays(self, tiny_panel):
        trajs = [t for reps in tiny_panel.subjects for t in reps]
        flat = Panel.from_arrays(
            tiny_panel.space,
            np.concatenate([t.states for t in trajs]),
            np.concatenate([t.sojourns for t in trajs]),
            [[3, 2], [2, 3], [3, 2]],
        )
        assert flat == tiny_panel
        assert flat.lengths.tolist() == [[3, 2], [2, 3], [3, 2]]
        assert (flat.n_subjects, flat.n_replications) == (3, 2)

    def test_subjects_round_trip(self, tiny_panel):
        again = Panel(tiny_panel.space, tiny_panel.subjects)
        assert again == tiny_panel
        assert again.subjects == tiny_panel.subjects
        assert [[t.states.tolist() for t in reps] for reps in again.subjects] == [
            [[0, 1, 0], [1, 0]], [[0, 1], [0, 1, 0]], [[1, 0, 1], [0, 1]],
        ]

    def test_arrays_and_views_are_read_only(self, tiny_panel):
        for arr in (tiny_panel.states, tiny_panel.sojourns, tiny_panel.lengths):
            with pytest.raises(ValueError):
                arr[0] = 1
        with pytest.raises(ValueError):
            tiny_panel.subjects[0][0].sojourns[0] = 1.0

    def test_from_arrays_copies_its_input(self, two_state_space):
        states = np.array([0, 1, 1, 0])
        panel = Panel.from_arrays(two_state_space, states, np.ones(4), [[2, 2]])
        states[0] = 1
        assert panel.states.tolist() == [0, 1, 1, 0]


def _arrays(obj):
    """Every array an object holds, its nested model objects' included."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _arrays(item)


class TestPickle:
    def test_round_trip_keeps_values_and_read_only_arrays(self, tiny_panel, simple_model):
        objects = [
            traj([0, 1, 0], [1.0, 2.0, 0.5]),
            next(tiny_panel.trajectories()),  # a view into the panel
            tiny_panel,
            simple_model.components[0],
            simple_model,
            _absorbing_mixture(),
            PosteriorMatrix(z=np.array([[0.25, 0.75], [1.0, 0.0]])),
            pool_mixture(simple_model),
        ]
        for obj in objects:
            back = pickle.loads(pickle.dumps(obj))
            assert type(back) is type(obj)
            if isinstance(obj, PooledParams):  # no __eq__
                assert (back.sojourn, back.absorbing) == (obj.sojourn, obj.absorbing)
            else:
                assert back == obj
            pairs = list(zip(_arrays(obj), _arrays(back), strict=True))
            assert pairs
            for a, b in pairs:
                np.testing.assert_array_equal(b, a)
                assert b.dtype == a.dtype
                assert not b.flags.writeable, type(obj).__name__


class TestGammaParams:
    def test_positive(self):
        with pytest.raises(InvalidModelError):
            GammaParams(shape=0.0, rate=1.0)
        with pytest.raises(InvalidModelError):
            GammaParams(shape=1.0, rate=-1.0)

    def test_moment_identities(self):
        p = GammaParams(shape=2.83, rate=0.41)
        assert p.mean == 2.83 / 0.41
        assert p.variance == 2.83 / (0.41 * 0.41)


class TestComponentParams:
    def test_alpha_simplex(self):
        with pytest.raises(InvalidModelError):
            make_component([0.5, 0.4], [[0, 1], [1, 0]], [(1, 1), (1, 1)])

    def test_row_sums(self):
        with pytest.raises(InvalidModelError):
            make_component([0.5, 0.5], [[0, 0.9], [1, 0]], [(1, 1), (1, 1)])

    def test_zero_diagonal(self):
        with pytest.raises(InvalidModelError):
            make_component([0.5, 0.5], [[0.5, 0.5], [1, 0]], [(1, 1), (1, 1)])

    def test_absorbing_conventions(self):
        comp = make_component(
            [0.5, 0.5, 0.0],
            [[0, 0.5, 0.5], [0.5, 0, 0.5], [0, 0, 0]],
            [(1, 1), (1, 1), None],
            absorbing=2,
        )
        assert comp.sojourn[2] is None
        # nonzero initial mass on the absorbing state is rejected
        with pytest.raises(InvalidModelError):
            make_component(
                [0.5, 0.4, 0.1],
                [[0, 0.5, 0.5], [0.5, 0, 0.5], [0, 0, 0]],
                [(1, 1), (1, 1), None],
                absorbing=2,
            )
        # absorbing row must stay zero
        with pytest.raises(InvalidModelError):
            make_component(
                [0.5, 0.5, 0.0],
                [[0, 0.5, 0.5], [0.5, 0, 0.5], [1, 0, 0]],
                [(1, 1), (1, 1), None],
                absorbing=2,
            )


class TestMixtureModel:
    def test_weights(self, two_state_space, simple_component):
        with pytest.raises(InvalidModelError):
            MixtureModel(
                space=two_state_space,
                weights=np.array([1.0, 0.0]),
                components=(simple_component, simple_component),
            )

    def test_space_agreement(self, simple_component):
        space3 = StateSpace(labels=("A", "B", "C"))
        with pytest.raises(InvalidModelError):
            MixtureModel(space=space3, weights=np.array([1.0]), components=(simple_component,))


def _absorbing_mixture():
    space = StateSpace(labels=("A", "B", "STOP"), absorbing=2)
    comps = (
        make_component([0.7, 0.3, 0.0], [[0, 0.6, 0.4], [0.5, 0, 0.5], [0, 0, 0]],
                       [(2.0, 1.0), (1.5, 0.7), None], absorbing=2),
        make_component([0.2, 0.8, 0.0], [[0, 0.9, 0.1], [0.3, 0, 0.7], [0, 0, 0]],
                       [(1.0, 0.5), (3.0, 2.0), None], absorbing=2),
    )
    return MixtureModel(space, np.array([0.4, 0.6]), comps)


def _fixture_models():
    return [
        _absorbing_mixture(),
        fixtures.one_component_model(),
        fixtures.well_separated_model(),
        fixtures.not_well_separated_model(),
    ]


def _set(p: MixtureArrays, field: str, index, value) -> MixtureArrays:
    """``p`` with one cell (or row) of ``field`` replaced, in a copy."""
    arr = np.array(getattr(p, field))
    arr[index] = value
    return p._replace(**{field: arr})


_SHAPES = re.escape(
    "parameter arrays must be shaped (G,), (G, D), (G, D, D), (G, D), (G, D) for D states"
)


class TestMixtureModelArrays:
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: _set(p, "shape", (0, 0), -1.0), "gamma shape must be positive"),
            (lambda p: _set(p, "shape", (1, 1), np.inf), "gamma shape must be positive"),
            (lambda p: _set(p, "rate", (1, 0), 0.0), "gamma rate must be positive"),
            (lambda p: _set(p, "alpha", 0, [-0.5, 1.5, 0.0]),
             "initial probabilities must be nonnegative"),
            (lambda p: _set(p, "alpha", 1, [0.5, 0.6, 0.0]), "initial probabilities must sum to 1"),
            (lambda p: _set(p, "trans", (0, 0), [0.5, 0.0, 0.5]), "transition diagonal must be zero"),
            (lambda p: _set(p, "trans", (0, 1), [1.5, 0.0, -0.5]),
             "transition probabilities must be nonnegative"),
            (lambda p: _set(p, "alpha", 0, [0.5, 0.25, 0.25]),
             "absorbing state cannot be a first state"),
            (lambda p: _set(p, "trans", (1, 2), [0.5, 0.5, 0.0]), "absorbing row must be all zero"),
            (lambda p: _set(p, "trans", (1, 1), [0.5, 0.0, 0.4]), "transition row 1 must sum to 1"),
            (lambda p: _set(p, "weights", 1, 0.0), "mixture weights must be strictly positive"),
            (lambda p: _set(p, "weights", 1, 0.7), "mixture weights must sum to 1"),
            (lambda p: p._replace(alpha=p.alpha[:, :2]), _SHAPES),
            (lambda p: p._replace(weights=p.weights[:1]), _SHAPES),
            (lambda p: p._replace(trans=p.trans[:, :, :, None]), _SHAPES),
            (lambda p: p._replace(absorbing=None),
             "parameters disagree with the space about the absorbing state"),
            (lambda p: MixtureArrays(*(a[:0] for a in p[:5]), p.absorbing),
             "a mixture needs at least one component"),
        ],
    )
    def test_from_arrays_messages(self, edit, message):
        model = _absorbing_mixture()
        with pytest.raises(InvalidModelError, match=f"^{message}$"):
            MixtureModel.from_arrays(model.space, edit(model.params))

    def test_from_arrays_copies_its_input_and_freezes_its_arrays(self):
        model = _absorbing_mixture()
        params = MixtureArrays(*(np.array(a) for a in model.params[:5]), 2)
        built = MixtureModel.from_arrays(model.space, params)
        params.alpha[0] = [0.5, 0.5, 0.0]
        assert built == model
        for arr in built.params[:5]:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.5

    def test_from_arrays_sets_the_absorbing_column_to_nan(self):
        model = _absorbing_mixture()
        params = model.params._replace(shape=np.full((2, 3), 2.0), rate=np.full((2, 3), 3.0))
        built = MixtureModel.from_arrays(model.space, params)
        assert np.isnan(built.params.shape[:, 2]).all() and np.isnan(built.params.rate[:, 2]).all()
        assert (built.params.shape[:, :2] == 2.0).all() and (built.params.rate[:, :2] == 3.0).all()

    @pytest.mark.parametrize("index", range(4))
    def test_both_constructors_build_the_same_model(self, index):
        model = _fixture_models()[index]
        again = MixtureModel.from_arrays(model.space, model.params)
        assert again == model
        assert MixtureModel(model.space, model.weights, model.components) == model
        assert again.components == model.components

    def test_components_view(self):
        model = _absorbing_mixture()
        comp = model.components[1]
        assert comp.sojourn == (GammaParams(1.0, 0.5), GammaParams(3.0, 2.0), None)
        assert comp.absorbing == 2
        np.testing.assert_array_equal(comp.trans, [[0, 0.9, 0.1], [0.3, 0, 0.7], [0, 0, 0]])

    def test_components_view_is_built_once(self):
        model = _absorbing_mixture()
        assert model.components is model.components
        # the cached view changes neither equality nor pickling
        fresh = MixtureModel.from_arrays(model.space, model.params)
        assert fresh == model and model == fresh
        back = pickle.loads(pickle.dumps(model))
        assert back == model and back.components == model.components
        assert back.components is not model.components

    def test_equality_reads_the_gamma_arrays(self):
        model = _absorbing_mixture()
        for field in ("shape", "rate"):
            other = MixtureModel.from_arrays(model.space, _set(model.params, field, (0, 1), 1.25))
            assert other != model


class TestPosteriorMatrix:
    def test_rows_sum_to_one(self):
        with pytest.raises(InvalidModelError):
            PosteriorMatrix(z=np.array([[0.6, 0.3]]))

    def test_range(self):
        with pytest.raises(InvalidModelError):
            PosteriorMatrix(z=np.array([[1.2, -0.2]]))


class TestValidateH1H2:
    def test_identical_sojourns_one_h2_violation(self, two_state_space):
        comp = make_component([0.5, 0.5], [[0, 1], [1, 0]], [(2, 1), (2, 1)])
        model = MixtureModel(
            space=two_state_space, weights=np.array([0.5, 0.5]), components=(comp, comp)
        )
        violations = validate_h1_h2(model, strict_eps=1e-6)
        h2 = [v for v in violations if v.kind == "h2"]
        assert len(h2) == 1
        assert (h2[0].component, h2[0].other_component) == (0, 1)

    def test_single_component_all_positive_empty(self, two_state_space):
        comp = make_component([0.5, 0.5], [[0, 1], [1, 0]], [(2, 1), (2, 1)])
        model = MixtureModel(space=two_state_space, weights=np.array([1.0]), components=(comp,))
        assert validate_h1_h2(model, strict_eps=1e-6) == []

    def test_two_chocolate_model(self):
        model = fixtures.well_separated_model()
        violations = validate_h1_h2(model, strict_eps=1e-6)
        # Oracle: count the zero cells of the renormalized reference tables.
        expected = 0
        for comp in model.components:
            expected += int(np.sum(comp.alpha <= 1e-6))
            off_diag = comp.trans[~np.eye(10, dtype=bool)]
            expected += int(np.sum(off_diag <= 1e-6))
        h1 = [v for v in violations if v.kind.startswith("h1")]
        h2 = [v for v in violations if v.kind == "h2"]
        assert len(h1) == expected
        assert h2 == []
        # the tables do contain exact zeros, e.g. Astringent -> Cocoa
        i = fixtures.CHOCOLATE_LABELS.index("Astringent")
        j = fixtures.CHOCOLATE_LABELS.index("Cocoa")
        assert model.components[0].trans[i, j] == 0.0


class TestPoolMixture:
    def test_single_component_identity(self, two_state_space, simple_component):
        model = MixtureModel(
            space=two_state_space, weights=np.array([1.0]), components=(simple_component,)
        )
        pooled = pool_mixture(model)
        np.testing.assert_array_equal(pooled.alpha, simple_component.alpha)
        np.testing.assert_array_equal(pooled.trans, simple_component.trans)
        assert pooled.sojourn[0] == ((1.0, simple_component.sojourn[0]),)

    def test_alpha_linearity(self, two_state_space):
        c1 = make_component([1.0, 0.0], [[0, 1], [1, 0]], [(1, 1), (1, 1)])
        c2 = make_component([0.0, 1.0], [[0, 1], [1, 0]], [(2, 1), (2, 1)])
        model = MixtureModel(
            space=two_state_space, weights=np.array([0.5, 0.5]), components=(c1, c2)
        )
        np.testing.assert_allclose(pool_mixture(model).alpha, [0.5, 0.5], atol=1e-15)

    def test_pooled_params_use_the_component_checks(self, absorbing_space):
        trans = np.array([[0, 0.5, 0.5], [0.5, 0, 0.5], [0, 0, 0]])
        with pytest.raises(InvalidModelError, match="^absorbing state cannot be a first state$"):
            PooledParams(alpha=[0.5, 0.4, 0.1], trans=trans, sojourn=(), absorbing=2)
        with pytest.raises(InvalidModelError, match="^transition row 1 must sum to 1$"):
            PooledParams(
                alpha=[0.5, 0.5, 0.0], trans=trans * [[1], [0.5], [1]], sojourn=(), absorbing=2
            )
        with pytest.raises(InvalidModelError, match="^initial probabilities must sum to 1$"):
            PooledParams(alpha=[0.5, 0.4, 0.0], trans=trans, sojourn=(), absorbing=2)

    def test_pooled_rows_stochastic(self):
        model = fixtures.well_separated_model()
        pooled = pool_mixture(model)
        np.testing.assert_allclose(pooled.trans.sum(axis=1), np.ones(10), atol=1e-12)
        np.testing.assert_allclose(pooled.alpha.sum(), 1.0, atol=1e-12)


def _simulate_unlabeled_counts(model, n_traj, seed):
    rng = np.random.default_rng(seed)
    d = model.space.n_states
    first = np.zeros(d)
    counts = np.zeros((d, d))
    visits = np.zeros((model.n_components, d))
    labels = rng.choice(model.n_components, size=n_traj, p=model.weights)
    for g in labels:
        t = simulate_trajectory(model.components[int(g)], 4, rng)
        first[t.states[0]] += 1
        np.add.at(counts, (t.states[:-1], t.states[1:]), 1.0)
        np.add.at(visits[int(g)], t.states[:-1], 1.0)
    return first, counts, visits


class TestPoolingLawMonteCarlo:
    """Unlabeled simulation from the mixture versus the pooled parameters.

    The pooled initial probabilities are the exact marginal law of the
    first state, so the empirical frequencies must match them.  Pooled
    transitions are a different story: conditioning on the current state
    reweights the latent component, so unlabeled transition frequencies
    converge to a visit-weighted mixture of the component matrices (the
    faithful check against the pi-weighted average lives in the acceptance
    suite and is expected to fail; see the second test here for the
    characterization of the true limit).
    """

    N_TRAJ = 50_000
    SEED = 20240817

    def test_empirical_pooling_alpha(self):
        model = fixtures.well_separated_model()
        pooled = pool_mixture(model)
        first, _, _ = _simulate_unlabeled_counts(model, self.N_TRAJ, self.SEED)
        alpha_hat = first / self.N_TRAJ
        se = np.sqrt(np.maximum(pooled.alpha * (1 - pooled.alpha), 1e-30) / self.N_TRAJ)
        assert np.all(np.abs(alpha_hat - pooled.alpha) <= 3 * se + 1e-12)

    def test_transitions_follow_visit_weighted_mixture(self):
        model = fixtures.well_separated_model()
        _, counts, visits = _simulate_unlabeled_counts(model, self.N_TRAJ, self.SEED)
        weights = visits / visits.sum(axis=0, keepdims=True)
        predicted = np.zeros_like(counts)
        for g in range(model.n_components):
            predicted += weights[g][:, None] * model.components[g].trans
        row_totals = counts.sum(axis=1)
        p_hat = counts / row_totals[:, None]
        se = np.sqrt(np.maximum(predicted * (1 - predicted), 1e-30) / row_totals[:, None])
        assert np.all(np.abs(p_hat - predicted) <= 3 * se + 1e-12)
