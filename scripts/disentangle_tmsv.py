"""Disentangle the two-mode squeezed vacuum family and print every certificate.

Usage: python scripts/disentangle_tmsv.py [r1 r2 ...]   (default r = 0.5 1 2)

For r = 7 to 9 the stored float64 state has nu_min below hbar/2 by roundoff, and its
witness is built at that nu_min; from r = 10 the float64 matrix is singular.
"""

import math
import sys

import numpy as np

from gaussep import (
    direct_sum,
    disentangle,
    ppt_test,
    two_mode_squeezed_vacuum,
)


def main() -> None:
    values = [float(arg) for arg in sys.argv[1:]] or [0.5, 1.0, 2.0]
    for r in values:
        cov = two_mode_squeezed_vacuum(r)
        before = ppt_test(cov)
        result = disentangle(cov)
        after = ppt_test(result.sigma_U)
        ww = result.werner_wolf
        target = direct_sum(result.witness.sigma_a, result.witness.sigma_b)
        equality_gap = np.linalg.norm(result.sigma_U.sigma - target) / np.linalg.norm(target)

        print(f"r = {r}")
        print(f"  input PPT: {'entangled' if not before.passed else 'ppt'} "
              f"(nu_min of flipped matrix {before.residuals['nu_min_tilde']:.6e}, "
              f"exp(-2r)/2 = {0.5 * math.exp(-2 * r):.6e})")
        print(f"  lambdas: {result.lambdas} (exp(r) = {math.exp(r):.6f})")
        print(f"  witness block diag: {np.diag(result.witness.sigma_a)}")
        print(f"  Werner-Wolf margin after rotation: {ww.margin:.3e} "
              f"({'pass' if ww.passed else 'fail'})")
        print(f"  ||Sigma_U - Sigma_A (+) Sigma_B|| / ||Sigma_A (+) Sigma_B|| = {equality_gap:.3e} "
              f"(pure state: equality case)")
        print(f"  rotated state PPT: {'ppt' if after.passed else 'entangled'}")
        print()


if __name__ == "__main__":
    main()
