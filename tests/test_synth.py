import numpy as np
import pytest

from lplr.errors import ShapeMismatch
from lplr.synth import SyntheticSpec, generate_synthetic


def test_exact_low_rank_without_noise():
    a = generate_synthetic(SyntheticSpec(n=60, d=10, k_true=3, seed=5))
    s = np.linalg.svd(a, compute_uv=False)
    assert s[3] < 1e-10 * s[0]


def test_outlier_count_exact():
    spec = SyntheticSpec(n=100, d=6, k_true=2, outlier_fraction=0.05, outlier_scale=20.0, noise_sigma=0.1, seed=3)
    a = generate_synthetic(spec)
    base = generate_synthetic(SyntheticSpec(n=100, d=6, k_true=2, outlier_fraction=0.0, noise_sigma=0.1, seed=3))
    changed = np.any(a != base, axis=1)
    assert changed.sum() == 5
    np.testing.assert_allclose(a[changed], 20.0 * base[changed], rtol=1e-12)


def test_deterministic_given_seed():
    spec = SyntheticSpec(n=40, d=5, k_true=2, outlier_fraction=0.1, noise_sigma=0.2, outlier_scale=8.0, seed=11)
    np.testing.assert_array_equal(generate_synthetic(spec), generate_synthetic(spec))


def test_different_seeds_differ():
    a = generate_synthetic(SyntheticSpec(n=20, d=4, k_true=2, noise_sigma=0.1, seed=1))
    b = generate_synthetic(SyntheticSpec(n=20, d=4, k_true=2, noise_sigma=0.1, seed=2))
    assert not np.array_equal(a, b)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=10, d=4, k_true=4),
        dict(n=10, d=4, k_true=2, outlier_fraction=1.0),
        dict(n=10, d=4, k_true=2, noise_sigma=-0.1),
        dict(n=10, d=4, k_true=2, outlier_scale=0.5),
        dict(n=0, d=4, k_true=2),
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(ShapeMismatch):
        SyntheticSpec(**kwargs)


# nan > 0 is false, so a NaN noise_sigma would otherwise add no noise at all.
@pytest.mark.parametrize("field", ["noise_sigma", "outlier_scale"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_spec_names_field(field, value):
    with pytest.raises(ShapeMismatch, match=field):
        SyntheticSpec(n=10, d=4, k_true=2, **{field: value})
