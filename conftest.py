"""Settings for every test session, tests/ and perfbench/ alike.

numpy links a multithreaded OpenBLAS, which reads its thread count once,
when numpy loads. The suite's matrices are small, and on a 2-core host
two BLAS threads make a lag-20 fit about 2.5 times slower than one, so
the count is pinned to one here, before any test module imports numpy,
as perfbench/run.py pins it for the benchmark.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
