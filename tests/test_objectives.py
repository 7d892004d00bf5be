import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from levylab.errors import ParameterError
from levylab.objectives import ObjectiveSpec, double_well, quadratic, valley_partition


def finite_difference_gradient(f, x, h=1e-6):
    """Central-difference gradient of ``f`` at ``x``, the reference for ``grad``."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return np.asarray((float(f(x + h)) - float(f(x - h))) / (2.0 * h))
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = h
        out.flat[i] = (float(f(x + e)) - float(f(x - e))) / (2.0 * h)
    return out


def test_quadratic_values():
    spec = quadratic(1)
    assert float(spec.f(np.asarray(0.0))) == 0.0
    assert float(spec.f(np.asarray(2.0))) == 2.0
    w = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(quadratic(3).grad(w), w)


def test_quadratic_declares_linear_drift():
    assert quadratic(1).linear_drift == (1.0, (0.0,))
    assert quadratic(3).linear_drift == (1.0, (0.0, 0.0, 0.0))
    assert double_well(-1.0, 2.0).linear_drift is None


def test_linear_drift_declaration_checked_against_grad():
    def spec(grad, drift, dim=1):
        return ObjectiveSpec(dim=dim, f=lambda w: w, grad=grad, linear_drift=drift)

    assert spec(lambda w: 2.0 * (w - 3.0), (2.0, 3.0)).linear_drift == (2.0, (3.0,))
    assert spec(lambda w: w - 1.0, (1.0, 1.0), dim=2).linear_drift == (1.0, (1.0, 1.0))
    for grad, drift, dim in [
        (lambda w: w, (2.0, 0.0), 1),  # wrong rate
        (lambda w: w - 3.0, (1.0, 0.0), 1),  # wrong center
        (lambda w: w**3, (1.0, 0.0), 1),  # not linear
        (lambda w: w * np.array([1.0, 2.0]), (1.0, 0.0), 2),  # not isotropic
        (lambda w: w, (1.0, (0.0, 0.0)), 3),  # center of the wrong size
        (lambda w: w, (np.inf, 0.0), 1),
    ]:
        with pytest.raises(ParameterError):
            spec(grad, drift, dim)


@pytest.mark.parametrize("spec,dim", [(quadratic(3), 3), (double_well(-1.0, 2.0), 1)])
def test_gradient_matches_finite_differences(spec, dim):
    gen = np.random.default_rng(70)
    for _ in range(10):
        x = gen.normal(0.0, 2.0, dim) if dim > 1 else np.asarray(gen.normal(0.0, 2.0))
        fd = finite_difference_gradient(spec.f, x)
        g = np.asarray(spec.grad(x), dtype=float)
        denom = max(float(np.linalg.norm(g)), 1e-8)
        assert float(np.linalg.norm(fd - g)) / denom < 1e-6


def test_double_well_critical_points():
    spec = double_well(-1.0, 2.0)
    for w in (-1.0, 0.0, 2.0):
        assert abs(float(spec.grad(np.asarray(w)))) < 1e-8
    assert spec.minima == (-1.0, 2.0)
    assert spec.saddles == (0.0,)


def test_double_well_saddle_curvature_negative():
    spec = double_well(-1.0, 2.0)
    h = 1e-4
    curv = (
        float(spec.f(np.asarray(h)))
        - 2.0 * float(spec.f(np.asarray(0.0)))
        + float(spec.f(np.asarray(-h)))
    ) / h**2
    assert curv < 0.0


def test_symmetric_double_well_even():
    spec = double_well(-1.0, 1.0)
    grid = np.linspace(0.0, 3.0, 50)
    assert np.allclose(spec.f(grid), spec.f(-grid), atol=1e-12)


def test_double_well_ordering_enforced():
    with pytest.raises(ParameterError):
        double_well(1.0, 2.0)
    with pytest.raises(ParameterError):
        double_well(-1.0, -0.5)


@pytest.mark.parametrize("scale", [0.0, float("nan"), float("inf")])
def test_double_well_scale_must_be_positive(scale):
    with pytest.raises(ParameterError, match="scale must be positive"):
        double_well(-1.0, 2.0, scale)


def test_valley_partition_refuses_non_finite_points():
    with pytest.raises(ParameterError, match="must be finite"):
        valley_partition((-1.0, 2.0), (float("nan"),))


def test_declared_minima_have_zero_gradient():
    for spec in (double_well(-1.0, 2.0), double_well(-0.3, 0.7, scale=2.5)):
        for m in spec.minima:
            assert abs(float(spec.grad(np.asarray(m)))) < 1e-8


def test_valley_index_partition():
    spec = double_well(-1.0, 2.0)
    pts = np.array([-5.0, -0.1, 0.1, 3.0])
    assert list(spec.valley_index(pts)) == [0, 0, 1, 1]


def test_geometry_interleaving_enforced():
    with pytest.raises(ParameterError):
        ObjectiveSpec(
            dim=1,
            f=lambda w: w**2,
            grad=lambda w: 2 * w,
            minima=(1.0, -1.0),
            saddles=(0.0,),
        )


@given(w=st.floats(-50.0, 50.0))
def test_double_well_gradient_consistent_everywhere(w):
    spec = double_well(-1.0, 2.0)
    fd = float(finite_difference_gradient(spec.f, np.asarray(w), h=1e-4))
    g = float(spec.grad(np.asarray(w)))
    assert fd == pytest.approx(g, rel=1e-4, abs=1e-3)


@pytest.mark.parametrize("scale", [1.0, 2.5])
def test_double_well_gradient_keeps_the_scaled_product_bits(scale):
    # at unit scale the gradient skips its multiply by scale; on signed zeros,
    # infinities, NaNs, subnormals and values near overflow it keeps the bits
    # of scale * w * (w - m1) * (w - m2)
    m1, m2 = -0.3, 0.7
    big = np.finfo(float).max
    w = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1e-310,
                  m1, m2, 0.2, -7.5, 1e102, -1e102, np.cbrt(big), -np.cbrt(big),
                  np.nextafter(np.cbrt(big), np.inf), 1e200, big, -big])
    with np.errstate(all="ignore"):
        expected = scale * w * (w - m1) * (w - m2)
        got = double_well(m1, m2, scale).grad(w)
    assert got.tobytes() == expected.tobytes()
    assert np.isnan(got).sum() == 2 and np.isinf(got).any()


def test_near_degenerate_curvature_warns():
    # a nearly flat declared minimum trips the curvature warning
    with pytest.warns(UserWarning):
        ObjectiveSpec(
            dim=1,
            f=lambda w: np.asarray(w) ** 4,
            grad=lambda w: 4.0 * np.asarray(w) ** 3,
            minima=(0.0,),
            saddles=(),
        )
