"""
Estimating sub-sample jitter and cancelling it
==============================================

A spike's true time almost never falls on a sample tick, so every cut is
the template shifted by an unknown fraction of a sample.  A first-order
least-squares fit gives that shift in closed form; one Newton step on the
squared-residual polynomial refines it.  Subtracting the shifted template
then removes far more energy than subtracting the unshifted one.
"""

import numpy as np

from peelsort.jitter import (Template, aligned_center, estimate_jitter,
                             estimate_jitter_linear)
from peelsort.synth import sinc_shift

# An analytic two-channel template with exact derivatives.
width, sigma, amp = 45, 3.0, 10.0
u = np.arange(width) - width // 2
gains = np.array([1.0, 0.6])
f = gains[:, None] * (amp * np.exp(-0.5 * (u / sigma) ** 2))[None, :]
f1 = gains[:, None] * (-amp * u / sigma ** 2 * np.exp(-0.5 * (u / sigma) ** 2))[None, :]
f2 = gains[:, None] * (amp * (u ** 2 / sigma ** 4 - 1 / sigma ** 2)
                       * np.exp(-0.5 * (u / sigma) ** 2))[None, :]
tpl = Template(neuron_id=0, f=f, f1=f1, f2=f2)

print("true shift   linear est   one Newton step")
for delta in (-0.4, -0.15, 0.05, 0.3):
    g = np.vstack([sinc_shift(row, delta) for row in f])
    d_lin = estimate_jitter_linear(g, tpl)
    est = estimate_jitter(g, tpl)
    print(f"  {delta:+.3f}      {d_lin:+.5f}     {est.delta:+.5f}")

# Subtraction with and without the jitter term, at a half-extreme shift.
delta = 0.35
g = np.vstack([sinc_shift(row, delta) for row in f])
est = estimate_jitter(g, tpl)
raw_energy = float(np.sum(g ** 2))
plain = float(np.sum((g - f) ** 2))
aligned = float(np.sum((g - aligned_center(tpl, est.delta)) ** 2))
print(f"\nshift {delta}: event energy {raw_energy:.1f}")
print(f"  subtract unshifted template: residual {plain:.2f} "
      f"({plain / raw_energy:.1%} of the event)")
print(f"  subtract jitter-aligned template: residual {aligned:.4f} "
      f"({aligned / raw_energy:.3%} of the event)")

# Why correction matters in bulk: over uniform jitter the point-wise
# variance of uncorrected events grows like |f'|^2 / 12.
rng = np.random.default_rng(0)
deltas = rng.uniform(-0.5, 0.5, 2000)
events = amp * np.exp(-0.5 * ((u[None, :] + deltas[:, None]) / sigma) ** 2)
std = events.std(axis=0, ddof=1)
predicted = np.abs(f1[0]) / np.sqrt(12.0)
j = int(np.argmax(predicted))
print(f"\npoint-wise std at the steepest sample: {std[j]:.4f} measured, "
      f"{predicted[j]:.4f} from |f'|/sqrt(12)")
