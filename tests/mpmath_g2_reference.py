"""Write the 40-digit g2 reference of
``test_bloch.py::TestPropagateExact::test_g2_matches_mpmath_reference``.

Run from the repository root::

    PYTHONPATH=src python tests/mpmath_g2_reference.py

It evaluates :func:`analytic.mp_output_g2` at beta = 0.9 and alpha = 1e-3
on 16 reduced points (T0 in {0.15, 1}, delta in {-6, -1, 0, 2}, zeta in
{1, 1.2}) and 17 delays linspace(0, 8, 17), and writes the inputs and the
values to ``mpmath_g2_reference.json`` beside this script. The test checks
that the stored inputs are its own grid and recomputes one point, so a file
left stale by a change of either fails it.
"""

import json
import math
from pathlib import Path

import numpy as np

from analytic import ReducedPoint, mp_output_g2
from fanostat import phi_from_t0

PATH = Path(__file__).with_name("mpmath_g2_reference.json")
BETA = 0.9


def main():
    tau = np.linspace(0, 8, 17)
    points = [ReducedPoint(delta=delta, zeta=zeta, alpha=1e-3,
                           phi=phi_from_t0(math.sqrt(T0)))
              for T0 in (0.15, 1.0) for delta in (-6.0, -1.0, 0.0, 2.0)
              for zeta in (1.0, 1.2)]
    ref = {"beta": BETA, "tau": tau.tolist(),
           "points": [{"delta": p.delta, "zeta": p.zeta, "phi": p.phi, "alpha": p.alpha}
                      for p in points],
           "g2": [mp_output_g2(tau, p, BETA).tolist() for p in points]}
    PATH.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
