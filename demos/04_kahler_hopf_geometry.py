"""Kahler structure and the Hopf fibration, verified numerically.

Restricting to mean-free second components turns the quotient space into
a Kahler manifold with sectional curvature pinched between 1 and 4; the
pinching is explained by the O'Neill formula for the circle fibration
over projective space, whose vertical correction is 3 omega(u, v)^2.

Run:  python demos/04_kahler_hopf_geometry.py
"""

import numpy as np

import hs2sphere.geometry as gm
import hs2sphere.hopf as hp
import hs2sphere.randfields as rf
from hs2sphere import PeriodicGrid
from hs2sphere.verification import run_suite

grid = PeriodicGrid(256)
rng = np.random.default_rng(4)

u = rf.k_tangent(grid, rng)
v = rf.k_tangent(grid, rng)
u = u * (1.0 / gm.norm(u))

print("Kahler identities on a random pair:")
print(f"  |J^2 u + u|                 = {gm.norm(gm.kahler_J(gm.kahler_J(u)) + u):.3e}")
print(f"  |omega(u,v) - g(Ju, v)|     = {abs(gm.symplectic_omega(u, v) - gm.metric(gm.kahler_J(u), v)):.3e}")
print(f"  |g(Ju, Jv) - g(u, v)|       = {abs(gm.metric(gm.kahler_J(u), gm.kahler_J(v)) - gm.metric(u, v)):.3e}")
print(f"  |(nabla J)(u, v)|           = {gm.nabla_J_residual(u, v):.3e}")
terms = gm.nijenhuis_terms(u, v)
print(
    "  Nijenhuis: summand norms "
    + ", ".join(f"{gm.norm(t):.3f}" for t in terms)
    + f" cancel to {gm.norm(gm.nijenhuis(u, v)):.3e}"
)

print("\ncurvature:")
print(f"  closed form <R(u,v)v,u>     = {gm.curvature_K_closed(u, v):.12f}")
print(f"  Christoffel-only expression = {gm.curvature_local(u, v):.12f}")
secs = []
for _ in range(200):
    a = rf.k_tangent(grid, rng)
    b = rf.k_tangent(grid, rng)
    secs.append(gm.sectional_curvature(a, b))
print(f"  sec over 200 random planes: [{min(secs):.4f}, {max(secs):.4f}]  (pinched in [1, 4])")
Ju = gm.kahler_J(u)
print(f"  sec(u, Ju)                  = {gm.sectional_curvature(u, Ju):.12f}")

print("\nHopf fibration:")
lhs, rhs, res = hp.oneill_check(u, Ju, g_route="local")
m = hp.vertical_bracket_integral(u, Ju)
print(f"  O'Neill: base curvature {lhs:.6f} = total-space term + (3/4)|[.,.]^v|^2")
print(f"           vertical contribution {0.75 * m * m / 4.0:.6f} = 3 omega(u, Ju)^2")
print(f"           residual {res:.3e}")
a = rf.group_element(grid, rng)
print(f"  commuting diagram residual  = {hp.check_diagram(a):.3e}")

print("\nfull identity suite (16 samples per identity):")
report = run_suite(n=256, samples=16, seed=0)
for r in report["results"]:
    mark = "ok " if r["pass"] else "BAD"
    print(f"  {mark} {r['identity']:34s} {r['max_residual']:.2e} < {r['tolerance']:.0e}")
