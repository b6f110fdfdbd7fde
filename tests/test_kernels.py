import tracemalloc

import numpy as np
import pytest

from edgeworth.errors import KernelMomentError
from edgeworth.kernels import MOLLIFY_BLOCK, build_super_kernel, frequency_window, mollify, smooth_step
from kernel_reference import mollify_whole_array, reference_kernel_values

# (9.5, 21.5) failed the moment guard at order 6 (-5.3e-6) when the taper
# band was integrated by Gauss-Legendre quadrature
WINDOWS = [(10.0, 20.0), (9.5, 21.5)]


@pytest.fixture(scope="module")
def kernels():
    return [build_super_kernel(plateau=plateau, rolloff=rolloff) for plateau, rolloff in WINDOWS]


def test_window_shape():
    assert smooth_step(np.array([-1.0, 0.0]))[1] == 0.0
    assert smooth_step(np.array([1.0, 2.0]))[0] == 1.0
    xi = np.array([0.0, 5.0, 10.0, 20.0, 30.0, 35.0])
    w = frequency_window(xi, 10.0, 20.0)
    assert w[0] == w[1] == w[2] == 1.0
    assert 0.0 < w[3] < 1.0
    assert w[4] == 0.0 and w[5] == 0.0


def test_mass_and_moments(kernels):
    for kernel in kernels:
        assert abs(kernel.mass() - 1.0) <= 1e-8
        for k in range(1, 7):
            assert abs(kernel.moment(k)) <= 1e-6
        # odd moments vanish exactly on the antisymmetric grid
        assert kernel.moment(1) == 0.0
        np.testing.assert_allclose(kernel.values, kernel.values[::-1], atol=1e-15)


def test_kernel_takes_negative_values(kernels):
    for kernel in kernels:
        assert kernel.values.min() < 0.0
        assert kernel.abs_norm() > 1.0


def test_polynomial_reproduction(kernels):
    def f(y):
        return 1.5 * y**4 - 2.0 * y**3 + y - 7.0

    xs = np.linspace(-2.0, 2.0, 9)
    for kernel in kernels:
        for delta in (1.0, 0.5, 0.1):
            err = np.max(np.abs(mollify(f, kernel, delta, xs) - f(xs)))
            assert err <= 1e-6


def test_constant_reproduced(kernels):
    for kernel in kernels:
        out = mollify(lambda y: np.ones_like(y), kernel, 0.7, np.array([0.0, 1.3]))
        np.testing.assert_allclose(out, 1.0, atol=1e-8)


def test_step_pointwise_convergence(kernels):
    step = lambda y: (y > 0).astype(float)
    for kernel in kernels:
        errs = []
        for delta in (0.2, 0.05):
            v = mollify(step, kernel, delta, np.array([-0.5, 0.5]))
            errs.append(max(abs(v[0]), abs(1.0 - v[1])))
        assert errs[0] < 1e-3 and errs[1] < 1e-3
        assert errs[1] < errs[0]


def _quartic(y):
    return 0.3 + y * (-1.2 + y * (0.7 + y * (0.25 - 0.9 * y)))


@pytest.mark.parametrize("x", [0.4, np.array([0.4])] + [np.linspace(-2.0, 2.0, m) for m in (7, 8, 9, 65)],
                         ids=["scalar", "1", "7", "8", "9", "65"])
def test_mollify_blocks_keep_the_bytes(kernels, x):
    # the default grid takes MOLLIFY_BLOCK // 8192 = 8 rows per block, so
    # 7, 8, 9 and 65 points end inside, on and past a block edge
    assert MOLLIFY_BLOCK // len(kernels[0].x) == 8
    for kernel in kernels:
        for delta in (0.3, 1.0):
            got, ref = mollify(_quartic, kernel, delta, x), mollify_whole_array(_quartic, kernel, delta, x)
            assert type(got) is type(ref) and np.asarray(got).tobytes() == np.asarray(ref).tobytes()


def test_mollify_memory_stays_block_sized(kernels):
    # the whole (65, 8192) array of shifted arguments peaked at 17.0 MB
    xs = np.linspace(-2.0, 2.0, 65)
    mollify(_quartic, kernels[0], 0.3, xs)
    tracemalloc.start()
    try:
        mollify(_quartic, kernels[0], 0.3, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize(
    "window",
    [{}, {"plateau": 12.0, "rolloff": 24.0},
     {"plateau": 2.0, "rolloff": 4.0, "points": 1 << 12, "moment_bound": np.inf}],
    ids=["default", "12-24", "2-4"],
)
def test_values_match_quadrature_reference(window):
    kernel = build_super_kernel(**window)
    ref = reference_kernel_values(kernel.x, kernel.plateau, kernel.rolloff, kernel.x[-1])
    ref /= np.trapezoid(ref, kernel.x)
    assert np.max(np.abs(kernel.values - ref)) <= 1e-12


def test_moment_failure_reports_order():
    with pytest.raises(KernelMomentError) as exc:
        build_super_kernel(plateau=2.0, rolloff=4.0, half_width=22.0, points=1 << 12)
    assert exc.value.order in range(1, 7)


def test_parameter_validation():
    with pytest.raises(ValueError):
        build_super_kernel(points=1000)
    with pytest.raises(ValueError):
        build_super_kernel(points=(1 << 12) + 1)
    with pytest.raises(ValueError):
        mollify(lambda y: y, build_super_kernel(), 1.5, np.array([0.0]))


def test_csv_export(tmp_path, kernels):
    kernel = kernels[0]
    path = tmp_path / "kernel.csv"
    kernel.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == len(kernel.x) + 1
