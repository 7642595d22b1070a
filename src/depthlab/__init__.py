"""depthlab: a desk-scale laboratory for dynamic-depth inference in
autoregressive decoder transformers — layer skipping vs. early exit, learned
gate controllers, and exact sequence-level budget allocation."""

import os

# One BLAS thread unless the environment says otherwise. The model's matmuls
# are small: on two threads a (200, 64) @ (64, 256) product ran 15x slower,
# 70x while another process held a core, and training spent twice the CPU
# time. BLAS reads these when numpy is first imported, so this runs first.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
