"""Noise-level sweep: reconstruction error versus data accuracy.

Runs the full synthetic protocol, on the problem's own grids, over three
fractional orders and four noise levels with the regularization weight
tied to the squared noise level, then prints the error table and the
fitted noise-convergence rates.  This is the desk-scale analog of a
published benchmark table.
"""

import fracinv as fi

config = fi.ExperimentConfig(
    problem="1d-sine",
    alphas=(0.25, 0.5, 0.75),
    T_values=(1.0,),
    noise_levels=(1e-2, 5e-3, 2.5e-3, 1e-3),
    c_gamma=4e-4,             # gamma = c_gamma * eps^2
    seed=1, discrepancy_factor=1.05, max_iters=600)

report = fi.run_sweep(config)

print("alpha   eps       gamma     delta     e_q       e_u       iters")
for r in report.records:
    print(f"{r.alpha:<6g}{r.eps:<10.1e}{r.gamma:<10.1e}{r.delta:<10.2e}"
          f"{r.e_q:<10.3e}{r.e_u:<10.3e}{r.iters}")
print()
for (a, T), (rq, ru) in report.rates.items():
    print(f"alpha = {a:g}: fitted e_q rate {rq:.2f}, e_u rate {ru:.2f}")
