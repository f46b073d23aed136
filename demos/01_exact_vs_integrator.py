"""Closed-form solutions cross-checked against the RK4 reference solver.

The system has exact solutions: initial data rides a great circle on the
unit sphere of complex L2 functions, and the flow is read off by pulling
the circle back through the group isometry.  This script solves one
global case both ways and prints the relative gap over time.

Run:  python demos/01_exact_vs_integrator.py
"""

import numpy as np

from hs2sphere import (
    InitialData,
    IntegratorConfig,
    PeriodicFunction,
    PeriodicGrid,
    exact_solution,
    integrate_pde,
    speed,
)
from hs2sphere.integrator import compare_states

grid = PeriodicGrid(256)

# u0x = sin(2 pi x), rho0 = 1.5 + cos(2 pi x): rho0 >= 0.5 > 0, so the
# solution exists for all time and is periodic on the arc-length clock.
data = InitialData.from_u0x(
    grid,
    lambda x: np.sin(2 * np.pi * x),
    lambda x: 1.5 + np.cos(2 * np.pi * x),
)
c = speed(data)
print(f"geodesic speed c = {c:.6f}  (energy c^2 = {c**2:.6f})")
print(f"arc-length period 2 pi corresponds to t = {2*np.pi/c:.6f}\n")

cfg = IntegratorConfig(dt=5e-4, t_end=1.0, dealias=False, record_every=400)
traj = integrate_pde(data, cfg)

# one call evaluates the closed form at every recorded time: (S, n) stacks
u_ex, rho_ex = exact_solution(data, traj.times)

# and one call compares the stacks: one error per recorded time
num = (PeriodicFunction(grid, f) for f in (traj.u, traj.rho))
errs_u, errs_rho = compare_states(*num, u_ex, rho_ex)

print("time      rel L2 error u   rel L2 error rho")
for t, eu, er in zip(traj.times, errs_u, errs_rho):
    print(f"{t:6.3f}    {eu:12.3e}    {er:12.3e}")

drift = np.max(np.abs(traj.energy - traj.energy[0])) / traj.energy[0]
print(f"\nenergy conservation |c(t)^2 - c0^2|/c0^2 <= {drift:.3e}")
print(f"mean-rho conservation drift <= {np.max(np.abs(traj.rho_mean - traj.rho_mean[0])):.3e}")

# time periodicity on the unit-speed clock: s and s + 2 pi give one state
from hs2sphere import exact_geodesic

s = 1.3
a = exact_geodesic(data, s / c)
b = exact_geodesic(data, (s + 2 * np.pi) / c)
print(f"\n|state(s) - state(s + 2 pi)| on the group: {a.distance(b):.3e}")
