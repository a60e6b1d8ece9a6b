"""Import uplab and run one small call through every layer, so that lazy
imports (scipy.integrate, scipy.special, numpy.linalg, numpy.fft) and the
argument parser are loaded before anything is timed.

Run as a script, it is one set-up sample: a fresh interpreter that ends once
uplab is imported and warmed up.
"""

import contextlib
import io
import sys
import warnings
from pathlib import Path


def warm_up() -> None:
    from uplab import cli, grid, harness

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        harness.cp_check(1, 2.0, 2.0, 1.0, 1.0)  # feasible: closed forms, quadrature, 1-D FFT
        harness.cp_check(1, 4.0, 4.0, 0.1, 0.1)  # violated: translate families, slope fit
        harness.cp_check(1, 4.0, 4.0, 0.25, 0.25)  # endpoint masses
        for d in (2, 3):
            grid.fourier_transform(grid.gaussian_grid_function(grid.default_spec(d)))
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["heisenberg", "--d-max", "60"])


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    warm_up()
