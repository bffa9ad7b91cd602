import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domerge.linalg import MAGNITUDE_MODES, Decoupled, decouple, recompose

from oracles import svd_truncate


def test_decouple_column_mode_hand_case():
    w = np.array([[3.0, 0.0], [4.0, 0.0]])
    d = decouple(w, "column")
    assert np.allclose(d.magnitude, [5.0, 0.0])
    # nonzero column becomes unit, zero column stays zero instead of NaN
    assert np.allclose(d.direction[:, 0], [0.6, 0.8])
    assert np.all(d.direction[:, 1] == 0.0)


def test_decouple_row_mode_hand_case():
    w = np.array([[3.0, 4.0], [0.0, 0.0]])
    d = decouple(w, "row")
    assert np.allclose(d.magnitude, [5.0, 0.0])
    assert np.allclose(d.direction[0], [0.6, 0.8])
    assert np.all(d.direction[1] == 0.0)


def test_decouple_matrix_mode_scalar_magnitude():
    w = np.array([[1.0, 2.0], [2.0, 4.0]])
    d = decouple(w, "matrix")
    assert d.magnitude.shape == (1,)
    assert d.magnitude[0] == pytest.approx(5.0)
    assert np.linalg.norm(d.direction) == pytest.approx(1.0)


def test_decouple_unit_columns_up_to_threshold():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((9, 5))
    d = decouple(w, "column")
    assert np.allclose(np.linalg.norm(d.direction, axis=0), 1.0)


def test_decouple_tiny_column_treated_as_zero():
    w = np.ones((4, 3))
    w[:, 1] = 1e-30  # far below the scale-relative threshold
    d = decouple(w, "column")
    assert d.magnitude[1] == 0.0
    assert np.all(d.direction[:, 1] == 0.0)


def test_decouple_zero_matrix_all_modes():
    for mode in MAGNITUDE_MODES:
        d = decouple(np.zeros((3, 4)), mode)
        assert np.all(d.magnitude == 0.0)
        assert np.all(d.direction == 0.0)
        assert np.all(recompose(d) == 0.0)


def test_decouple_rejects_unknown_mode():
    with pytest.raises(ValueError):
        decouple(np.ones((2, 2)), "diagonal")


def test_decouple_rejects_non_finite():
    w = np.ones((2, 2))
    w[0, 0] = np.nan
    with pytest.raises(ValueError):
        decouple(w, "column")


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 12),
    n=st.integers(1, 12),
    mode=st.sampled_from(MAGNITUDE_MODES),
    seed=st.integers(0, 2**31),
)
def test_decouple_recompose_roundtrip(m, n, mode, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((m, n)) * rng.choice([1e-6, 1.0, 1e6])
    back = recompose(decouple(w, mode))
    assert np.linalg.norm(back - w) <= 1e-12 * max(np.linalg.norm(w), 1e-300)


def test_recompose_shape_mismatch_rejected():
    d = Decoupled(magnitude=np.ones(3), direction=np.ones((2, 2)), mode="column")
    with pytest.raises(ValueError):
        recompose(d)


# the svd_truncate tests pin the dense oracle that the lowrank output is checked against
def test_svd_truncate_exact_on_low_rank_input():
    rng = np.random.default_rng(2)
    w = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 8))
    b, a = svd_truncate(w, 3)
    assert b.shape == (10, 3) and a.shape == (3, 8)
    assert np.linalg.norm(b @ a - w) <= 1e-10 * np.linalg.norm(w)


def test_svd_truncate_error_equals_tail_singular_energy():
    rng = np.random.default_rng(4)
    w = rng.standard_normal((9, 7))
    s = np.linalg.svd(w, compute_uv=False)
    for r in (1, 3, 5):
        b, a = svd_truncate(w, r)
        err = np.linalg.norm(w - b @ a)
        assert err == pytest.approx(np.sqrt((s[r:] ** 2).sum()), rel=1e-10)


def test_svd_truncate_rank_bounds():
    w = np.ones((4, 3))
    with pytest.raises(ValueError):
        svd_truncate(w, 0)
    with pytest.raises(ValueError):
        svd_truncate(w, 4)


def test_matrix_inputs_must_be_2d_and_nonempty():
    with pytest.raises(ValueError):
        decouple(np.ones(3), "column")
    with pytest.raises(ValueError):
        decouple(np.ones((0, 3)), "column")
