"""Entry point for ``python -m repro.cluster``."""

import os

# The tier does no BLAS work.  One BLAS thread keeps this process at
# one OS thread, so the CLI can fork its replica zygote (see
# repro.cluster.zygote); set before anything imports NumPy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from repro.cluster.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
