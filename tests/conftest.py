import numpy as np
import pytest
from hypothesis import strategies as hst
from scipy.stats import kstest


def ks_uniform(values) -> float:
    """KS statistic of a sample against Uniform(0, 1)."""
    return float(kstest(np.asarray(values), "uniform").statistic)


# Gaussian predictions, stds and labels whose z = (label - mean) / std passes the
# largest double on row 0: in the subtraction (label 1e308 beside the mean -1e308)
# or in the division (label 1e300 beside the std 1e-10). Row 0's PIT is 1.0.
OVERFLOWING_Z = {
    "subtract": ([[-1e308, 0.0], [0.0, 0.0], [0.0, 1.0]], [[1.0, 1.0]] * 3,
                 [1e308, 0.2, -0.5]),
    "divide": ([[0.0, 0.5], [0.0, 0.0], [0.0, 1.0]], [[1e-10, 1.0], [1.0, 1.0], [1.0, 1.0]],
               [1e300, 0.2, -0.5]),
}


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@hst.composite
def edge_probs(draw, max_rows=20, max_models=4, max_classes=5):
    """[N, M, C] probabilities that EnsemblePredictions accepts at its edges:
    entries in [-1e-12, 0), row sums 1 +- 1e-6, and exact dyadic rows whose
    CDF values are exact and whose integrated classes tie."""
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    n, m, c = (draw(hst.integers(1, max_rows)), draw(hst.integers(1, max_models)),
               draw(hst.integers(2, max_classes)))
    if draw(hst.booleans()):
        counts = rng.multinomial(8, np.full(c, 1.0 / c), size=(n, m))
        return counts / 8.0
    probs = rng.dirichlet(np.full(c, 0.5), size=(n, m))
    negative = rng.random((n, m, c)) < draw(hst.sampled_from([0.0, 0.2, 0.5]))
    negative[..., 0] &= ~negative[..., 1:].all(axis=-1)
    probs[negative] = -1e-12 * rng.uniform(0.01, 1.0, negative.sum())
    target = 1.0 + rng.uniform(-0.99e-6, 0.99e-6, (n, m, 1))
    positive = np.where(negative, 0.0, probs)
    rest = target - np.where(negative, probs, 0.0).sum(axis=-1, keepdims=True)
    return np.where(negative, probs, positive * rest / positive.sum(axis=-1,
                                                                  keepdims=True))
