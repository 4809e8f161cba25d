"""Reference child: a fixed piece of work that runs no bellcheck code.

`bench/run.py` starts it between benchmark commands and times it from the
outside, so that the run's timings can be scaled to the host's speed at the
time.  Like a bellcheck command it starts an interpreter, imports NumPy, runs
a pure-Python loop and a dense NumPy loop; about 0.35 s on a 2-core VM.  A
change to bellcheck cannot change its time.
"""

import numpy as np

counts: dict[int, int] = {}
digits = 0
for i in range(60_000):
    counts[i & 1023] = counts.get(i & 1023, 0) + i * i % 7
    digits += len(str(i))

rng = np.random.default_rng(1)
amplitudes = rng.standard_normal(1 << 16) + 1j * rng.standard_normal(1 << 16)
perm = rng.permutation(1 << 16)
signs = 1 - 2 * (perm & 1)
for _ in range(40):
    amplitudes = amplitudes[perm] * signs
    amplitudes /= np.linalg.norm(amplitudes)
