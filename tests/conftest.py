import os

# One BLAS thread, set before numpy loads: the Kubo-Mori Hessian's dgemm in
# the max-entropy solver rounds differently with more threads, and the
# solver trajectory pins and golden reports hold its last bits.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
