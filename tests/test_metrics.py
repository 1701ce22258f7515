from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment

from smcmix import (
    MixtureModel,
    StateSpace,
    align_components,
    classification_rate,
    err_gamma,
    err_matrix,
    fixtures,
    pi_recovery,
)
from smcmix.metrics import _best_permutation, err_by_component

from conftest import make_component
from oracles import assignment_cost, exhaustive_best_permutation


def perturbed_model(seed=0, scale=0.05):
    rng = np.random.default_rng(seed)
    base = fixtures.well_separated_model()
    comps = []
    for comp in base.components:
        alpha = comp.alpha + rng.uniform(0, scale, size=10)
        alpha = alpha / alpha.sum()
        trans = comp.trans + rng.uniform(0, scale, size=(10, 10))
        np.fill_diagonal(trans, 0.0)
        trans = trans / trans.sum(axis=1, keepdims=True)
        sojourn = tuple(
            type(p)(shape=p.shape * float(rng.uniform(0.8, 1.2)), rate=p.rate)
            for p in comp.sojourn
        )
        comps.append(
            make_component(alpha, trans, [(p.shape, p.rate) for p in sojourn])
        )
    return MixtureModel(space=base.space, weights=base.weights, components=tuple(comps))


# The component-by-component loops the metrics ran on model objects, kept
# as oracles: the array versions must give the same floats, bit for bit.


def alignment_cost(truth, est):
    g = truth.n_components
    cost = np.zeros((g, g))
    for t in range(g):
        for e in range(g):
            cost[t, e] = err_matrix(
                truth.components[t].trans, est.components[e].trans
            ) + err_matrix(truth.components[t].alpha, est.components[e].alpha)
    return cost


def reference_align_components(truth, est):
    return exhaustive_best_permutation(alignment_cost(truth, est))


def reference_err_gamma(truth, est, which, perm):
    num = 0.0
    denom = 0.0
    for t in range(truth.n_components):
        comp_t = truth.components[t]
        comp_e = est.components[perm[t]]
        for pt, pe in zip(comp_t.sojourn, comp_e.sojourn):
            if pt is None:
                continue
            a = getattr(pt, which)
            b = getattr(pe, which)
            num += (a - b) ** 2
            denom += a * a
    return num / denom


def reference_err_by_component(truth, est, which, perm):
    out = []
    for t in range(truth.n_components):
        a = getattr(truth.components[t], which)
        b = getattr(est.components[perm[t]], which)
        out.append(err_matrix(a, b))
    return out


def _model_pairs():
    """(truth, estimate) pairs of the fixture models, every estimate both
    in its own component order and reversed."""
    from test_core import _absorbing_mixture

    def swap(model):
        return MixtureModel(model.space, model.weights[::-1].copy(), model.components[::-1])

    absorbing = _absorbing_mixture()
    shifted = MixtureModel(absorbing.space, [0.5, 0.5], [
        make_component(c.alpha, c.trans, [(1.1 * p.shape, 0.9 * p.rate) for p in c.sojourn[:2]]
                       + [None], absorbing=2)
        for c in absorbing.components
    ])
    truths = [fixtures.well_separated_model(), fixtures.not_well_separated_model(), absorbing]
    ests = [perturbed_model(seed=5), fixtures.well_separated_model(), shifted]
    pairs = [(fixtures.one_component_model(), fixtures.one_component_model())]
    for truth, est in zip(truths, ests):
        pairs += [(truth, est), (truth, swap(est)), (est, truth)]
    return pairs


def assert_metrics_match_the_loops(truth, est):
    perm = align_components(truth, est)
    # no two alignments of these pairs cost the same, so the permutations agree
    assert perm == reference_align_components(truth, est)
    for which in ("shape", "rate"):
        got, expected = err_gamma(truth, est, which, perm), reference_err_gamma(truth, est, which, perm)
        assert type(got) is float and got == expected, (which, got, expected)
    for which in ("alpha", "trans"):
        assert err_by_component(truth, est, which, perm) == reference_err_by_component(
            truth, est, which, perm
        )


class TestArrayMetricsMatchTheLoops:
    def test_fixture_models(self):
        for truth, est in _model_pairs():
            assert_metrics_match_the_loops(truth, est)

    def test_squares_as_python_floats_do(self):
        """For this x, x ** 2 on a Python float (libm pow) and x * x differ
        in the last bit."""
        x = float.fromhex("0x1.f4560daa73c7dp+0")
        assert x**2 != x * x
        space = StateSpace(labels=("A", "B"))

        def model(shape):
            comp = make_component([0.5, 0.5], [[0, 1], [1, 0]], [(shape, 1.0), (1.0, 1.0)])
            return MixtureModel(space, [1.0], [comp])

        assert_metrics_match_the_loops(model(2 * x), model(x))

    def test_benchmark_fits(self, benchmark_fits):
        for truth, est in benchmark_fits:
            assert_metrics_match_the_loops(truth, est)


class TestErrMatrix:
    def test_zero_iff_equal(self):
        m = np.array([[0.0, 1.0], [0.6, 0.4]])
        assert err_matrix(m, m) == 0.0
        assert err_matrix(m, m + 1e-3) > 0.0

    def test_zero_estimate(self):
        m = np.array([0.3, 0.7])
        assert err_matrix(m, np.zeros(2)) == pytest.approx(1.0)

    def test_hand_case(self):
        true = np.array([[0.0, 1.0], [1.0, 0.0]])
        est = np.array([[0.0, 0.9], [0.8, 0.2]])
        assert err_matrix(true, est) == pytest.approx(0.045)


class TestAlignComponents:
    def test_identity(self):
        model = fixtures.well_separated_model()
        assert align_components(model, model) == (0, 1)

    def test_swap(self):
        model = fixtures.well_separated_model()
        swapped = MixtureModel(
            space=model.space,
            weights=model.weights[::-1].copy(),
            components=model.components[::-1],
        )
        assert align_components(model, swapped) == (1, 0)
        perm = align_components(model, swapped)
        assert err_by_component(model, swapped, "trans", perm) == [0.0, 0.0]

    def test_single_component(self):
        model = fixtures.one_component_model()
        assert align_components(model, model) == (0,)

    def test_ties_go_to_the_assignment_solvers_choice(self):
        """Equal-cost alignments resolve as the assignment solver resolves
        them, deterministically; on the first three cases its choice is
        also the lexicographically first minimizer."""
        truth = fixtures.well_separated_model()
        twins = MixtureModel(
            space=truth.space,
            weights=truth.weights,
            components=(truth.components[1], truth.components[1]),
        )
        assert align_components(truth, twins) == (0, 1)
        # four permutations reach the minimum 1
        cost = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        assert _best_permutation(cost) == (1, 0, 2)
        assert _best_permutation(np.zeros((4, 4))) == (0, 1, 2, 3)
        # where the rules part: both permutations cost 1, row 0 takes its
        # cheaper column first; the lexicographic rule gave (0, 1)
        assert _best_permutation(np.array([[1.0, 0.0], [1.0, 0.0]])) == (1, 0)

    def test_matches_exhaustive_oracle(self):
        truth = fixtures.well_separated_model()
        est = perturbed_model(seed=5)
        shuffled = MixtureModel(
            space=est.space, weights=est.weights[::-1].copy(), components=est.components[::-1]
        )
        expected = exhaustive_best_permutation(alignment_cost(truth, shuffled))
        assert expected == (1, 0)
        assert align_components(truth, shuffled) == expected


# Square cost matrices of G <= 6 whose entries often repeat, so that several
# permutations share the minimum.
_costs = st.integers(1, 6).flatmap(lambda g: hnp.arrays(
    np.float64, (g, g),
    elements=st.one_of(st.sampled_from([0.0, 1.0, 2.5]),
                       st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)),
))


@settings(max_examples=200, deadline=None)
@given(_costs)
def test_assignment_reaches_the_exhaustive_minimum(cost):
    perm = _best_permutation(cost)
    assert sorted(perm) == list(range(cost.shape[0]))
    assert all(type(e) is int for e in perm)
    best = assignment_cost(cost, exhaustive_best_permutation(cost))
    assert abs(assignment_cost(cost, perm) - best) <= 1e-12 * (1.0 + abs(best))


@settings(max_examples=50, deadline=None)
@given(st.integers(7, 40).flatmap(lambda g: hnp.arrays(
    np.float64, (g, g), elements=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-1e3, 1e3)))))
def test_assignment_reaches_scipys_minimum_past_the_exhaustive_range(cost):
    """scipy's solver, a second implementation of the same algorithm, as
    the oracle where G! is out of reach."""
    perm = _best_permutation(cost)
    assert sorted(perm) == list(range(cost.shape[0]))
    rows, cols = linear_sum_assignment(cost)
    best = assignment_cost(cost, cols[np.argsort(rows)])
    assert abs(assignment_cost(cost, perm) - best) <= 1e-12 * cost.shape[0] * (1.0 + np.abs(cost).max())


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda g: st.lists(
    st.tuples(st.integers(0, g - 1), st.integers(0, g - 1)), min_size=1, max_size=40)))
def test_classification_rate_reaches_the_exhaustive_maximum(pairs):
    true, est = (np.array(column) for column in zip(*pairs))
    g = int(max(true.max(), est.max())) + 1
    best = max(
        sum(int(perm[e] == t) for t, e in pairs) for perm in permutations(range(g))
    )
    assert classification_rate(true, est) == best / len(pairs)


class TestBeyondEightComponents:
    """Alignments of G = 10 to 12 components, past the G! search's reach."""

    @pytest.mark.parametrize("g", [10, 12])
    def test_align_components_undoes_a_permutation(self, g):
        rng = np.random.default_rng(g)
        d = 4
        comps = []
        for _ in range(g):
            trans = rng.uniform(0.1, 1.0, size=(d, d))
            np.fill_diagonal(trans, 0.0)
            comps.append(make_component(rng.dirichlet(np.ones(d)), trans / trans.sum(axis=1, keepdims=True),
                                        [(rng.uniform(1, 5), rng.uniform(0.5, 2))] * d))
        space = StateSpace(labels=tuple("ABCD"))
        truth = MixtureModel(space, np.full(g, 1.0 / g), tuple(comps))
        shuffle = rng.permutation(g)  # estimated component e is true component shuffle[e]
        est = MixtureModel(space, truth.weights[shuffle], tuple(comps[e] for e in shuffle))
        perm = align_components(truth, est)
        assert perm == tuple(np.argsort(shuffle).tolist())
        assert err_by_component(truth, est, "trans", perm) == [0.0] * g
        assert err_gamma(truth, est, "shape", perm) == 0.0

    @pytest.mark.parametrize("g", [10, 12])
    def test_classification_rate_undoes_a_relabelling(self, g):
        rng = np.random.default_rng(g)
        true = np.repeat(np.arange(g), 10)
        relabel = rng.permutation(g)
        est = relabel[true]
        assert classification_rate(true, est) == 1.0
        est[[0, 15, 31]] = relabel[(true[[0, 15, 31]] + 1) % g]  # three subjects misplaced
        assert classification_rate(true, est) == (10 * g - 3) / (10 * g)

    @pytest.mark.parametrize("g", [10, 12])
    def test_pi_recovery_undoes_a_permutation(self, g):
        rng = np.random.default_rng(g)
        true = rng.dirichlet(np.ones(g))
        shuffle = rng.permutation(g)
        np.testing.assert_array_equal(pi_recovery(true, true[shuffle]), true)


class TestErrGamma:
    def test_zero_iff_equal(self):
        model = fixtures.well_separated_model()
        assert err_gamma(model, model, "shape") == 0.0
        assert err_gamma(model, model, "rate") == 0.0

    def test_doubling_gives_one(self):
        model = fixtures.one_component_model()
        doubled = MixtureModel(
            space=model.space,
            weights=model.weights,
            components=(
                make_component(
                    model.components[0].alpha,
                    model.components[0].trans,
                    [(2 * p.shape, p.rate) for p in model.components[0].sojourn],
                ),
            ),
        )
        assert err_gamma(model, doubled, "shape") == pytest.approx(1.0)
        assert err_gamma(model, doubled, "rate") == 0.0

    def test_matches_direct_recomputation(self):
        truth = fixtures.well_separated_model()
        est = perturbed_model(seed=9)
        perm = align_components(truth, est)
        num = denom = 0.0
        for g in range(2):
            for pt, pe in zip(truth.components[g].sojourn, est.components[perm[g]].sojourn):
                num += (pt.shape - pe.shape) ** 2
                denom += pt.shape**2
        assert err_gamma(truth, est, "shape") == pytest.approx(num / denom, rel=1e-12)


class TestClassificationRate:
    def test_exact(self):
        assert classification_rate([0, 1, 1], [0, 1, 1]) == 1.0

    def test_swapped_labels(self):
        assert classification_rate([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_three_quarters(self):
        assert classification_rate([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75

    def test_two_component_identity(self):
        rng = np.random.default_rng(3)
        true = rng.integers(0, 2, size=50)
        est = rng.integers(0, 2, size=50)
        agree = float(np.mean(true == est))
        assert classification_rate(true, est) == pytest.approx(max(agree, 1 - agree))

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(4)
        true = rng.integers(0, 3, size=60)
        est = rng.integers(0, 3, size=60)
        perm = np.array([2, 0, 1])
        assert classification_rate(true, est) == pytest.approx(
            classification_rate(perm[true], perm[est])
        )


class TestJointPermutationInvariance:
    def test_model_metrics_invariant(self):
        truth = fixtures.well_separated_model()
        est = perturbed_model(seed=11)

        def swap(model):
            return MixtureModel(
                space=model.space,
                weights=model.weights[::-1].copy(),
                components=model.components[::-1],
            )

        assert err_gamma(truth, est, "shape") == pytest.approx(
            err_gamma(swap(truth), swap(est), "shape"), rel=1e-12
        )
        assert err_by_component(truth, est, "trans") == pytest.approx(
            list(reversed(err_by_component(swap(truth), swap(est), "trans"))), rel=1e-12
        )


class TestPiRecovery:
    def test_identity(self):
        np.testing.assert_array_equal(
            pi_recovery([0.5, 0.5], [0.5, 0.5]), [0.5, 0.5]
        )

    def test_swapped(self):
        np.testing.assert_allclose(pi_recovery([0.7, 0.3], [0.3, 0.7]), [0.7, 0.3])

    def test_enumeration_oracle(self):
        rng = np.random.default_rng(5)
        true = rng.dirichlet(np.ones(4))
        est = rng.dirichlet(np.ones(4))
        best = min(
            (np.sum((est[list(p)] - true) ** 2), est[list(p)].tolist())
            for p in permutations(range(4))
        )[1]
        np.testing.assert_allclose(pi_recovery(true, est), best)

    def test_explicit_permutation(self):
        np.testing.assert_allclose(
            pi_recovery([0.7, 0.3], [0.3, 0.7], perm=(0, 1)), [0.3, 0.7]
        )
