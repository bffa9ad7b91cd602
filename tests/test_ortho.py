import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domerge.ortho import (
    _MAX_BACKTRACKS,
    _REL_LOSS_TOL,
    OrthoConfig,
    gram_descent,
    ortho_grad,
    ortho_loss,
    orthogonalize_group,
)

from oracles import cross_gram_sum, descend, pairwise_grad, pairwise_loss


def test_config_defaults_and_validation():
    cfg = OrthoConfig()
    assert cfg.max_steps == 200
    assert cfg.max_rel_perturbation == 0.05
    for max_steps in (0, float("nan"), 2.5, True):
        with pytest.raises(ValueError, match="max_steps"):
            OrthoConfig(max_steps=max_steps)
    with pytest.raises(ValueError):
        OrthoConfig(max_rel_perturbation=0.0)
    with pytest.raises(ValueError):
        OrthoConfig(max_rel_perturbation=1.0)
    for step_size in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            OrthoConfig(step_size=step_size)


def test_loss_with_zero_deltas_is_cross_gram_sum(rng):
    mats = [rng.standard_normal((6, 4)) for _ in range(3)]
    zeros = [np.zeros_like(w) for w in mats]
    assert ortho_loss(mats, zeros, mu=5.0) == pytest.approx(cross_gram_sum(mats), rel=1e-12)


def test_loss_penalty_term(rng):
    mats = [rng.standard_normal((5, 3)) for _ in range(2)]
    deltas = [0.1 * rng.standard_normal((5, 3)) for _ in range(2)]
    mu = 2.0
    perturbed = [w + d for w, d in zip(mats, deltas)]
    expected = cross_gram_sum(perturbed) + mu * sum(np.linalg.norm(d) ** 2 for d in deltas)
    assert ortho_loss(mats, deltas, mu) == pytest.approx(expected, rel=1e-12)


def test_gradient_matches_finite_differences(rng):
    mats = [rng.standard_normal((5, 3)) for _ in range(3)]
    deltas = [0.05 * rng.standard_normal((5, 3)) for _ in range(3)]
    mu = 0.8
    grads = ortho_grad(mats, deltas, mu)
    h = 1e-6
    for k in range(3):
        numeric = np.zeros_like(deltas[k])
        for idx in np.ndindex(*deltas[k].shape):
            up = [d.copy() for d in deltas]
            dn = [d.copy() for d in deltas]
            up[k][idx] += h
            dn[k][idx] -= h
            numeric[idx] = (ortho_loss(mats, up, mu) - ortho_loss(mats, dn, mu)) / (2 * h)
        assert np.allclose(grads[k], numeric, rtol=1e-5, atol=1e-7)


def test_gradient_zero_for_orthogonal_group():
    # disjoint column supports: all cross products vanish, and with zero
    # deltas the penalty gradient vanishes too
    w1 = np.zeros((6, 2))
    w2 = np.zeros((6, 2))
    w1[:3] = 1.0
    w2[3:] = 2.0
    grads = ortho_grad([w1, w2], [np.zeros_like(w1), np.zeros_like(w2)], mu=1.0)
    assert all(np.all(g == 0.0) for g in grads)


def test_orthogonal_group_is_left_alone():
    w1 = np.vstack([np.eye(3), np.zeros((3, 3))])
    w2 = np.vstack([np.zeros((3, 3)), np.eye(3)])
    out, stats = orthogonalize_group([w1, w2], OrthoConfig())
    assert stats.initial_lo == 0.0
    assert stats.final_lo == 0.0
    assert (stats.stop_reason, stats.steps_taken, stats.trials) == ("converged", 0, 0)
    assert np.array_equal(out[0], w1)
    assert np.array_equal(out[1], w2)


def test_single_member_group_passthrough(rng):
    w = rng.standard_normal((5, 4))
    out, stats = orthogonalize_group([w], OrthoConfig())
    assert np.array_equal(out[0], w)
    assert stats.initial_lo == stats.final_lo == 0.0
    assert stats.steps_taken == 0


def test_loss_never_increased_and_budget_respected(rng):
    mats = [rng.standard_normal((10, 6)) for _ in range(3)]
    cfg = OrthoConfig(max_rel_perturbation=0.05)
    out, stats = orthogonalize_group(mats, cfg)
    assert stats.final_lo <= stats.initial_lo
    assert stats.final_lo == pytest.approx(cross_gram_sum(out), rel=1e-9)
    for w, p in zip(mats, out):
        rel = np.linalg.norm(p - w) / np.linalg.norm(w)
        assert rel <= cfg.max_rel_perturbation


def test_trajectory_monotone_and_consistent(rng):
    mats = [rng.standard_normal((8, 5)) for _ in range(4)]
    out, stats = orthogonalize_group(mats, OrthoConfig())
    traj = stats.lo_trajectory
    assert traj[0] == stats.initial_lo
    assert traj[-1] == stats.final_lo
    assert len(traj) == stats.steps_taken + 1
    assert all(b <= a for a, b in zip(traj, traj[1:]))


def test_random_group_actually_improves(rng):
    mats = [rng.standard_normal((12, 8)) for _ in range(3)]
    _, stats = orthogonalize_group(mats, OrthoConfig())
    assert stats.final_lo < stats.initial_lo


def test_max_steps_honored(rng):
    mats = [rng.standard_normal((8, 6)) for _ in range(3)]
    _, stats = orthogonalize_group(mats, OrthoConfig(max_steps=3))
    assert stats.steps_taken == 3
    assert stats.stop_reason == "step_cap"
    assert stats.trials >= 3


def test_stalls_when_the_budget_pins_the_loss():
    # three equal columns: once all sit on the budget edge, every trial projects
    # back onto the same point, so no halving lowers the loss
    w = np.ones((9, 1))
    out, stats = orthogonalize_group([w, w, w], OrthoConfig())
    assert stats.stop_reason == "stalled"
    assert stats.trials == stats.steps_taken + _MAX_BACKTRACKS
    assert stats.final_lo == pytest.approx(cross_gram_sum(out), rel=1e-12)
    assert stats.final_lo < stats.initial_lo


def test_scalar_pair_descends_as_its_zero_padding():
    # the descent runs in the group's R x R Gram coordinates whatever its row
    # count, so zero rows change nothing; on two equal scalars it finds one more
    # step at rounding level than a descent on the scalars themselves did
    w = np.array([[2.0]])
    out, stats = orthogonalize_group([w, w], OrthoConfig())
    _, padded = orthogonalize_group([np.pad(w, ((0, 2), (0, 0)))] * 2, OrthoConfig())
    assert stats == padded
    assert (stats.stop_reason, stats.steps_taken, stats.trials) == ("converged", 4, 7)
    assert stats.final_lo == pytest.approx(cross_gram_sum(out), rel=1e-12)
    assert stats.final_lo < stats.initial_lo


@pytest.mark.parametrize(
    "seed, rows, widths",
    [(0, 300, (1, 1)), ((11008, 16), 11008, (16,) * 4)],
    ids=["300x1_pair", "down_proj"],
)
def test_no_lower_loss_at_the_lo_floor_is_convergence(seed, rows, widths):
    # 30 halvings find no lower loss once Lo is at rounding level: 2.3e-8 of its
    # start for the pair, 5.7e-7 for the down_proj-shaped group
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((rows, w)) for w in widths]
    _, stats = orthogonalize_group(mats, OrthoConfig())
    # the last step's 30 trials were all rejected
    assert stats.trials >= stats.steps_taken + _MAX_BACKTRACKS
    assert stats.stop_reason == "converged"
    assert stats.final_lo <= _REL_LOSS_TOL * stats.initial_lo


def test_default_descent_converges_on_tall_group():
    # regression guard: the default first step must adapt its way to the
    # budgeted optimum that a large fixed first step also reaches
    rng = np.random.default_rng(0)
    mats = [rng.standard_normal((256, 16)) for _ in range(4)]
    cfg = OrthoConfig()
    _, stats = orthogonalize_group(mats, cfg)
    _, big = orthogonalize_group(mats, OrthoConfig(step_size=100.0))
    assert stats.stop_reason == "converged"
    assert stats.steps_taken < cfg.max_steps
    assert stats.final_lo == pytest.approx(big.final_lo, rel=1e-3)


def test_deterministic_given_config(rng):
    mats = [rng.standard_normal((9, 5)) for _ in range(3)]
    out1, s1 = orthogonalize_group(mats, OrthoConfig())
    out2, s2 = orthogonalize_group(mats, OrthoConfig())
    assert all(np.array_equal(a, b) for a, b in zip(out1, out2))
    assert s1.lo_trajectory == s2.lo_trajectory


def test_inputs_not_mutated(rng):
    mats = [rng.standard_normal((7, 4)) for _ in range(2)]
    copies = [w.copy() for w in mats]
    orthogonalize_group(mats, OrthoConfig())
    assert all(np.array_equal(w, c) for w, c in zip(mats, copies))


def test_mixed_column_counts_allowed(rng):
    mats = [rng.standard_normal((8, 3)), rng.standard_normal((8, 5))]
    out, stats = orthogonalize_group(mats, OrthoConfig())
    assert out[0].shape == (8, 3) and out[1].shape == (8, 5)
    assert stats.final_lo <= stats.initial_lo


def test_row_count_mismatch_rejected(rng):
    with pytest.raises(ValueError):
        orthogonalize_group([rng.standard_normal((6, 3)), rng.standard_normal((7, 3))], OrthoConfig())


def test_malformed_groups_and_deltas_rejected(rng):
    mats = [rng.standard_normal((6, 3)), rng.standard_normal((6, 2))]
    with pytest.raises(ValueError, match="empty group"):
        orthogonalize_group([], OrthoConfig())
    with pytest.raises(ValueError, match="deltas length must match group size"):
        ortho_loss(mats, [np.zeros((6, 3))], mu=1.0)
    with pytest.raises(ValueError, match=r"deltas\[1\] shape \(6, 3\) != mats\[1\] shape \(6, 2\)"):
        ortho_grad(mats, [np.zeros((6, 3))] * 2, mu=1.0)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    members=st.integers(2, 4),
    budget=st.floats(0.01, 0.3),
    step=st.floats(1e-3, 2.0),
)
def test_budget_and_monotonicity_properties(seed, members, budget, step):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(3, 12)), int(rng.integers(2, 8))
    mats = [rng.standard_normal((m, n)) for _ in range(members)]
    cfg = OrthoConfig(max_rel_perturbation=budget, step_size=step)
    out, stats = orthogonalize_group(mats, cfg)
    assert stats.final_lo <= stats.initial_lo
    traj = stats.lo_trajectory
    assert all(b <= a for a, b in zip(traj, traj[1:]))
    assert stats.stop_reason in {"converged", "step_cap", "stalled"}
    assert stats.trials >= stats.steps_taken
    for w, p in zip(mats, out):
        norm = np.linalg.norm(w)
        if norm > 0:
            assert np.linalg.norm(p - w) / norm <= budget


def test_loss_and_gradient_match_pairwise_oracle(rng):
    mats = [rng.standard_normal((9, w)) for w in (2, 4, 3)]
    deltas = [0.1 * rng.standard_normal(w.shape) for w in mats]
    mu = 0.3
    assert ortho_loss(mats, deltas, mu) == pytest.approx(pairwise_loss(mats, deltas, mu), rel=1e-13)
    for got, want in zip(ortho_grad(mats, deltas, mu), pairwise_grad(mats, deltas, mu)):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def _assert_matches_oracle(mats, cfg, out, stats):
    ref_out, ref = descend(mats, cfg)
    assert stats.steps_taken == ref.steps_taken > 0
    assert (stats.trials, stats.stop_reason) == (ref.trials, ref.stop_reason)
    assert len(stats.lo_trajectory) == len(ref.lo_trajectory)
    for got, want in zip(stats.lo_trajectory, ref.lo_trajectory):
        assert got == pytest.approx(want, rel=1e-12)
    assert stats.per_member_rel_perturbation == pytest.approx(
        ref.per_member_rel_perturbation, rel=1e-9
    )
    for got, want in zip(out, ref_out):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize(
    "rows, widths",
    [(40, (3, 5, 4)), (9, (4, 3, 5)), (6, (2, 2))],
    ids=["tall", "wide", "square"],
)
@pytest.mark.parametrize("step", [1e-2, 1.0])
def test_descent_matches_pairwise_oracle(rows, widths, step):
    # every group descends in R x R Gram coordinates, whatever its row count
    rng = np.random.default_rng((rows, len(widths)))
    mats = [rng.standard_normal((rows, w)) for w in widths]
    cfg = OrthoConfig(step_size=step)
    out, stats = orthogonalize_group(mats, cfg)
    _assert_matches_oracle(mats, cfg, out, stats)


def _zero_column(rng):
    mats = [rng.standard_normal((30, w)) for w in (3, 4, 2)]
    mats[1][:, 2] = 0.0
    return mats


def _duplicate_member(rng):
    w = rng.standard_normal((30, 3))
    return [w, rng.standard_normal((30, 4)), w.copy()]


def _ill_conditioned_member(rng):
    u, _ = np.linalg.qr(rng.standard_normal((30, 4)))
    v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    bad = u @ np.diag(np.logspace(0, -6, 4)) @ v
    return [rng.standard_normal((30, 3)), bad, rng.standard_normal((30, 2))]


@pytest.mark.parametrize(
    "build", [_zero_column, _duplicate_member, _ill_conditioned_member],
    ids=["zero_column", "duplicate_member", "cond_1e6"],
)
@pytest.mark.parametrize("step", [1e-2, 1.0])
def test_gram_coordinates_on_degenerate_tall_groups(build, step):
    # a singular or badly conditioned metric G = W^T W: nothing is factorized,
    # so the descent needs no fallback and still holds the budget exactly
    mats = build(np.random.default_rng(11))
    assert mats[0].shape[0] > sum(w.shape[1] for w in mats)
    cfg = OrthoConfig(step_size=step)
    out, stats = orthogonalize_group(mats, cfg)
    measured = [np.linalg.norm(p - w) / np.linalg.norm(w) for p, w in zip(out, mats)]
    assert max(measured) <= cfg.max_rel_perturbation
    assert stats.per_member_rel_perturbation == pytest.approx(measured, rel=1e-9)
    _assert_matches_oracle(mats, cfg, out, stats)


def test_gram_descent_holds_seven_gram_sized_arrays():
    """At R = 256 (16 members of width 16) the descent's tracemalloc peak,
    beyond the Gram it is given, stays below 8 R x R f64 arrays: it measures
    7.27, the seven reused trial buffers and the owner mask. A new array for
    each trial operation, and an identity matrix, measured 10.14."""
    w = np.random.default_rng(0).standard_normal((1024, 256))
    gram = w.T @ w
    tracemalloc.start()
    try:
        _, stats = gram_descent(gram, [16] * 16, OrthoConfig(max_steps=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.steps_taken == 5
    assert peak < 8 * gram.nbytes, peak / gram.nbytes
