import numpy as np
import pytest

from suffreduce.instances import random_instance


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def ill_conditioned():
    """Dense 6x6 array with eigenvalues 1, 0.5, 0.3, 0.1, 1e-6, 1e-10 under a
    random rotation: positive definite, but its inverse carries roundoff
    far above a 1e-9 tolerance."""
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))[0]
    s = (q * [1.0, 0.5, 0.3, 0.1, 1e-6, 1e-10]) @ q.T
    return (s + s.T) / 2.0


@pytest.fixture(scope="session")
def battery():
    """50 seeded instances, sizes cycling 10/20/30, varied block counts.

    Shared across the acceptance tests so the screening, sufficiency, and
    containment checks all see the same inputs.
    """
    gen = np.random.default_rng(20240817)
    sizes = [10, 20, 30]
    out = []
    for i in range(50):
        p = sizes[i % 3]
        n_blocks = int(gen.integers(1, 5))
        cross = float(gen.choice([0.0, 0.05, 0.1]))
        out.append(random_instance(gen, p, n_blocks=n_blocks, cross=cross))
    return out
