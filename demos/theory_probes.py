"""Numerical probes of the stability theory behind the reconstruction.

Three diagnostics, each a conclusion worth checking numerically rather
than taking on faith:

1. decay: the weighted W^{1,inf} size of the discrete fractional time
   derivative, t^(alpha/2) * |dt^alpha U^n|, stays bounded on [1, T];
2. positivity: the terminal-time weight q |grad u|^2 + (f - dt^alpha u) u
   is strictly positive for both benchmark problems, which is the
   condition the two-sided coefficient stability rests on;
3. stability contrast: the quotient |q - q_true| / |grad(u(q) -
   u(q_true))(T)|^(1/2) stays moderate for comfortably large T but blows
   up when the observation time shrinks to 1e-5 - smooth coefficient
   perturbations become nearly invisible in the terminal gradient.
"""

import fracinv as fi

sine = fi.get_problem("1d-sine")
sine_mesh = fi.problem_mesh(sine, 1 / 100)

print("== decay of the fractional time derivative ==")
rows, ratio = fi.verify_decay(sine, sine_mesh, 0.5, fi.TimeGrid(10.0, 1000))
for t, w in rows[99::200]:
    print(f"  t = {t:5.2f}   t^(a/2) |d^a U|_W1inf = {w:.4f}")
print(f"  max/min over [1, 10]: {ratio:.2f}")

print("== terminal positivity weight ==")
for name, T, n, h in (("1d-sine", 1.0, 30, 1 / 113), ("2d-disk", 2.0, 10, 0.25)):
    problem = fi.get_problem(name)
    mn, cells = fi.check_positivity(problem, fi.problem_mesh(problem, h), 0.5,
                                    fi.TimeGrid(T, n))
    print(f"  {name}: min over {len(cells)} cells = {mn:.4e}")

print("== stability quotient: large T versus tiny T ==")
table = fi.stability_quotient(sine, sine_mesh, 0.75,
                              [fi.TimeGrid(T, 50) for T in (1e-5, 3.0, 5.0)],
                              fi.bump_perturbations(sine, sine_mesh, 10, seed=0))
for T, (qs, mx) in sorted(table.items()):
    print(f"  T = {T:<8g} max quotient = {mx:7.3f}")
small, large = table[1e-5][1], table[5.0][1]
print(f"  contrast T=1e-5 vs T=5: {small / large:.1f}x")
