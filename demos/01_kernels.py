"""Tour of the moving-average kernel families.

Builds one kernel from each family, evaluates it against its closed form
where one exists, and shows the grid sampling with fitted tail metadata that
the rest of the library consumes.
"""

import math

import numpy as np

from cmaqf import ExponentialOU, FractionalNoise, SddeKernel, build_carma, grid_sample

print("== Ornstein-Uhlenbeck kernel: exp(-lam t) on t >= 0")
ou = ExponentialOU(1.0)
print(f"   phi(1) = {ou.eval(1.0):.6f}   (exp(-1) = {math.exp(-1):.6f})")

print("\n== State-space (autoregressive order 2) kernel")
carma = build_carma(a=(3.0, 2.0), b=(3.0, 1.0), q=1)
t = np.linspace(0.0, 6.0, 7)
print("   t        kernel      2e^-t - e^-2t")
for ti, vi in zip(t, carma.eval(t)):
    print(f"   {ti:4.1f}  {vi:10.6f}  {2*math.exp(-ti) - math.exp(-2*ti):12.6f}")

print("\n== Delay-equation kernel: dX = -X_{t-1} dt + dL reduces to pure delay dynamics")
sdde = SddeKernel(atoms=[(1.0, -0.5)], horizon=8.0, step=1e-3)
for ti in (0.5, 1.5, 2.5):
    print(f"   phi({ti}) = {sdde.eval(ti):.6f}")
print(f"   fitted tail: {sdde.tail_fit.preferred} (exp rate {sdde.tail_fit.exp_rate:.3f})")

print("\n== Fractional noise kernel: long memory, power tail with exponent 1 - d")
fn = FractionalNoise(0.1)
grid = grid_sample(fn, Delta=1.0, m=8, horizon=512.0)
print(f"   phi(0.5) = {fn.eval(0.5):.6f}")
print(f"   fitted tail exponent over the last decade: {grid.tail.exponent:.4f} (target 0.9)")

print("\n== Grid sampling carries the kernel, the lattice and decay metadata")
g = grid_sample(ou, Delta=1.0, m=1, horizon=3.0)
print(f"   values on {{-3..3}}: {np.round(g.values, 6)}")
