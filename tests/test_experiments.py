import numpy as np
import pytest

from domerge.experiments import (
    BALANCE_GRID,
    ConflictReduction,
    SyntheticSpec,
    balance_sweep,
    conflict_reduction_trial,
    decoupling_comparison,
    factor_crossterm_trial,
    magnitude_weighted_loss,
    run_balance_suite,
    run_conflict_suite,
    run_crossterm_suite,
    run_decoupling_suite,
    sign_conflict_rate,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(m=0)
    with pytest.raises(ValueError):
        SyntheticSpec(lambda_ratio=0.0)
    with pytest.raises(ValueError):
        SyntheticSpec(samples=0)


def test_weighted_loss_hand_value():
    w1 = np.eye(2)
    w2 = 2.0 * np.eye(2)
    # at w = w1: first residual 0, second ||w1 - w2||^2 = 2, coefficient 3/2
    assert magnitude_weighted_loss(w1, w1, w2, 1.0, 2.0) == pytest.approx(3.0)
    # at the midpoint both residuals are 0.5
    mid = 1.5 * np.eye(2)
    assert magnitude_weighted_loss(mid, w1, w2, 1.0, 2.0) == pytest.approx(3 * 0.5 + 1.5 * 0.5)


def test_weighted_loss_rejects_zero_norms():
    w = np.eye(2)
    with pytest.raises(ValueError):
        magnitude_weighted_loss(w, w, w, 0.0, 1.0)


def test_weighted_loss_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        magnitude_weighted_loss(np.eye(2), np.eye(3), np.eye(3), 1.0, 1.0)


def test_balance_sweep_matches_analytic_expectation():
    # with total magnitude energy fixed at 2n, the averaging loss has
    # expectation (m * 2n / 4) * (ratio + 2 + 1/ratio)
    spec = SyntheticSpec(m=16, n=16, samples=300, seed=11)
    sweep = balance_sweep(spec, (0.5, 1.0, 2.0))
    for ratio, res in sweep.items():
        expected = (spec.m * 2 * spec.n / 4) * (ratio + 2 + 1 / ratio)
        assert abs(res.mean - expected) <= 5 * res.std_error


def test_balance_sweep_symmetric_in_ratio_inversion():
    spec = SyntheticSpec(m=16, n=16, samples=400, seed=3)
    sweep = balance_sweep(spec, (0.25, 1.0, 4.0))
    lo, hi = sweep[0.25], sweep[4.0]
    assert abs(lo.mean - hi.mean) <= 5 * np.hypot(lo.std_error, hi.std_error)


def test_balance_sweep_minimum_at_unity():
    spec = SyntheticSpec(m=16, n=16, samples=200, seed=0)
    sweep = balance_sweep(spec, BALANCE_GRID)
    base = sweep[1.0].mean
    assert all(res.mean > base for ratio, res in sweep.items() if ratio != 1.0)


def test_balance_sweep_requires_unity_in_grid():
    with pytest.raises(ValueError):
        balance_sweep(SyntheticSpec(samples=2), (0.5, 2.0))


def test_balance_sweep_deterministic():
    spec = SyntheticSpec(m=8, n=8, samples=20, seed=5)
    assert balance_sweep(spec, (1.0, 2.0)) == balance_sweep(spec, (1.0, 2.0))


def test_decoupling_null_difference_exactly_zero():
    cmp = decoupling_comparison(SyntheticSpec(m=16, n=16, lambda_ratio=1.0, samples=50, seed=2))
    assert cmp.difference.mean == 0.0
    assert cmp.difference.std_error == 0.0


def test_decoupling_favored_when_imbalanced():
    cmp = decoupling_comparison(SyntheticSpec(m=16, n=16, lambda_ratio=2.0, samples=200, seed=2))
    assert cmp.difference.mean > 3 * cmp.difference.std_error
    assert cmp.decoupled.mean < cmp.coupled.mean


def test_sign_conflict_rate_hand_cases():
    assert sign_conflict_rate([[1.0, -1.0]], [[1.0, 1.0]]) == 0.5
    assert sign_conflict_rate([[1.0, 2.0]], [[3.0, 4.0]]) == 0.0
    assert sign_conflict_rate([[-1.0]], [[1.0]]) == 1.0
    # zero entries drop out of both numerator and denominator
    assert sign_conflict_rate([[0.0, 1.0]], [[5.0, -1.0]]) == 1.0
    assert sign_conflict_rate([[0.0]], [[0.0]]) == 0.0


def test_sign_conflict_rate_shape_mismatch():
    with pytest.raises(ValueError):
        sign_conflict_rate(np.ones((2, 2)), np.ones((2, 3)))


def test_conflict_trial_reduces_conflicts():
    res = conflict_reduction_trial(SyntheticSpec(m=32, n=8, seed=0), trial=0)
    assert isinstance(res, ConflictReduction)
    # the anti-correlated construction starts with most positions conflicted
    assert res.initial_rate > 0.6
    assert res.final_rate < res.initial_rate
    traj = res.lo_trajectory
    assert all(b <= a for a, b in zip(traj, traj[1:]))


def test_crossterm_trial_matches_direct_formula():
    res = factor_crossterm_trial(12, 10, 3, seed=(9, 1))
    rng = np.random.default_rng((9, 1))
    bs = [rng.standard_normal((12, 3)) for _ in range(2)]
    as_ = [rng.standard_normal((3, 10)) for _ in range(2)]
    w = [b @ a for b, a in zip(bs, as_)]
    concat = (w[0] + w[1]) / 2
    separate = (bs[0] + bs[1]) @ (as_[0] + as_[1]) / 4
    cross = (bs[0] @ as_[1] + bs[1] @ as_[0]) / 4
    norms = [np.linalg.norm(x) for x in w]
    total = sum(norms)

    def loss(mat):
        return sum((total / a) * np.linalg.norm(mat - x) ** 2 for a, x in zip(norms, w))

    assert res.concat_loss == pytest.approx(loss(concat), rel=1e-12)
    assert res.separate_loss == pytest.approx(loss(separate), rel=1e-12)
    assert res.cross_term_norm == pytest.approx(np.linalg.norm(cross), rel=1e-12)


def test_crossterm_identical_adapters_reconstruct():
    rng = np.random.default_rng(4)
    b = rng.standard_normal((10, 3))
    a = rng.standard_normal((3, 8))
    w = b @ a
    # duplicate adapters: both merge styles return w itself, with zero loss,
    # and the cross term aligns with the product at exactly half its norm
    k = 2
    concat = (w + w) / k
    separate = ((b + b) @ (a + a)) / k**2
    assert np.allclose(concat, w) and np.allclose(separate, w)
    cross = separate - (w + w) / k**2
    assert np.linalg.norm(cross) == pytest.approx(0.5 * np.linalg.norm(w), rel=1e-12)


def test_crossterm_disjoint_subspaces_structure():
    # factor pairs drawn from mutually orthogonal subspaces: the cross sum is
    # exactly orthogonal to the main sum and carries equal Frobenius mass
    rng = np.random.default_rng(8)
    m, n, r = 24, 20, 4
    qb, _ = np.linalg.qr(rng.standard_normal((m, 2 * r)))
    qa, _ = np.linalg.qr(rng.standard_normal((n, 2 * r)))
    bs = [qb[:, :r], qb[:, r:]]
    as_ = [qa[:, :r].T, qa[:, r:].T]
    main = bs[0] @ as_[0] + bs[1] @ as_[1]
    cross = bs[0] @ as_[1] + bs[1] @ as_[0]
    assert abs(np.tensordot(main, cross)) <= 1e-10
    assert np.linalg.norm(main) == pytest.approx(np.sqrt(2 * r), rel=1e-10)
    assert np.linalg.norm(cross) == pytest.approx(np.sqrt(2 * r), rel=1e-10)
    # equal member norms make the weighted centroid the concatenated merge,
    # so the separate-merge penalty is the pure squared distance term
    w = [bs[0] @ as_[0], bs[1] @ as_[1]]
    norms = [np.linalg.norm(x) for x in w]
    total = sum(norms)

    def loss(mat):
        return sum((total / v) * np.linalg.norm(mat - x) ** 2 for v, x in zip(norms, w))

    w_cat = main / 2
    w_sep = (main + cross) / 4
    gap = loss(w_sep) - loss(w_cat)
    coeff_sum = sum(total / v for v in norms)
    assert gap == pytest.approx(coeff_sum * np.linalg.norm(w_sep - w_cat) ** 2, rel=1e-9)


def test_crossterm_trial_validation():
    with pytest.raises(ValueError):
        factor_crossterm_trial(4, 4, 5)


def test_suites_pass_at_reduced_counts():
    assert run_balance_suite(samples=100, seed=1)["pass"]
    assert run_decoupling_suite(samples=100, seed=1)["pass"]
    conflict = run_conflict_suite(trials=30, seed=1)
    assert conflict["pass"] and conflict["monotone_trajectories"] == 30
    cross = run_crossterm_suite(trials=50, seed=1)
    assert cross["pass"] and cross["concat_wins"] >= 48


def test_suite_results_are_deterministic():
    assert run_crossterm_suite(trials=20, seed=3) == run_crossterm_suite(trials=20, seed=3)
