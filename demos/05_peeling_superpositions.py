"""
Peeling superimposed spikes apart
=================================

When two cells fire within a window of each other the detector sees one
merged event that matches neither template.  Classify-and-subtract fixes
this: fit the best template, subtract it at its estimated sub-sample
time, re-detect on the residual, repeat.  Each round peels one spike off
the pile.
"""

import numpy as np

from peelsort.detect import DetectionParams
from peelsort.events import CutSpec
from peelsort.ingest import Recording, STAGE_NORMALIZED
from peelsort.jitter import Template
from peelsort.peel import UNCLASSIFIED, Catalogue, peel
from peelsort.synth import NeuronSpec, render_spike_train


def gauss_template(neuron_id, gains, amp, sigma, width=45):
    gains = np.asarray(gains, dtype=float)
    u = np.arange(width) - width // 2
    f = gains[:, None] * (amp * np.exp(-0.5 * (u / sigma) ** 2))[None, :]
    f1 = np.empty_like(f)
    f1[:, 1:-1] = (f[:, 2:] - f[:, :-2]) / 2.0
    f1[:, 0] = f[:, 1] - f[:, 0]
    f1[:, -1] = f[:, -1] - f[:, -2]
    f2 = np.empty_like(f)
    f2[:, 1:-1] = (f1[:, 2:] - f1[:, :-2]) / 2.0
    f2[:, 0] = f1[:, 1] - f1[:, 0]
    f2[:, -1] = f1[:, -1] - f1[:, -2]
    return Template(neuron_id=neuron_id, f=f, f1=f1, f2=f2), f


tpl_a, rows_a = gauss_template(0, (1.0, 0.06), 14.0, 2.5)
tpl_b, rows_b = gauss_template(1, (0.06, 1.0), 10.0, 3.5)
# A catalogue holds its templates, largest first, as one (3, K, channels,
# width) array: every f, then every f1, then every f2.
catalogue = Catalogue.of(sorted([tpl_a, tpl_b], key=lambda t: -t.l1_size),
                         CutSpec(22, 22), rate_hz=15000.0)

# Cell A fires at 3000.3 and cell B five samples later: closer than the
# detector's 15-sample minimum separation, so only one peak survives.
n = 6000
t_a, t_b = 3000.3, 3005.3
trace_a, _ = render_spike_train(NeuronSpec(template=rows_a, rate_hz=1.0),
                                np.array([t_a]), n)
trace_b, _ = render_spike_train(NeuronSpec(template=rows_b, rate_hz=1.0),
                                np.array([t_b]), n)
rng = np.random.default_rng(42)
noise = np.empty((2, n))
noise[:, 0] = rng.standard_normal(2)
eps = rng.standard_normal((2, n))
for i in range(1, n):
    noise[:, i] = 0.4 * noise[:, i - 1] + np.sqrt(1 - 0.16) * eps[:, i]
rec = Recording(data=noise + trace_a + trace_b, rate_hz=15000.0,
                stage=STAGE_NORMALIZED)
print(f"two spikes {t_b - t_a:.0f} samples apart, true times "
      f"{t_a} and {t_b}")

train, decisions, residual = peel(rec, catalogue, DetectionParams())

for dec in decisions:
    if dec.neuron != UNCLASSIFIED:
        print(f"  round {dec.round}: peak {dec.peak_index} -> cell "
              f"{dec.neuron}, delta {dec.delta:+.3f}, time "
              f"{dec.peak_index - dec.delta:.3f}, fit residual "
              f"{dec.rss_after:.1f} of {dec.rss_before:.1f}")
    else:
        print(f"  round {dec.round}: peak {dec.peak_index} rejected")

for (nid, want) in ((0, t_a), (1, t_b)):
    got = train.corrected_time[train.neuron == nid]
    print(f"cell {nid}: recovered at {got[0]:.3f} "
          f"(error {abs(got[0] - want):.3f} samples)")
print(f"residual energy {float(np.sum(residual.data ** 2)):.0f} vs "
      f"input {float(np.sum(rec.data ** 2)):.0f}")
