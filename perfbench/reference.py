"""A fixed reference workload that reads how fast the host runs right now.

The host this benchmark was built on switches between a fast and a slow
state every few seconds, and the share of time it spends in each drifts
over minutes, by up to 1.7 times in wall time (``NOTES.md``).  So every
pass samples this workload between its items (``worker.py``), and
``run.py`` scales the pass's timings by ``NOMINAL_PROBE_S`` over the mean
sample: they read as if the host had run at its reference speed.

The work is plain Python in the kernel's style, polynomials as dicts from
exponent tuples to coefficients mod p, multiplied and reduced under a
graded order, about 4 ms per sample.  It imports nothing from the kernel,
so a change to the kernel cannot change it, and it runs with the garbage
collector paused, so the size of the kernel's heap cannot slow it.  Do not
edit it: every scaled timing is relative to ``NOMINAL_PROBE_S``, which was
measured for this code.
"""

from __future__ import annotations

import gc
import random
import time

P = 32003
# A round figure near the mean sample time on the reference host (NOTES.md);
# it only sets the scale of the scaled timings.
NOMINAL_PROBE_S = 0.003


def _mul(f: dict, g: dict) -> dict:
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = (out.get(m, 0) + c1 * c2) % P
    return {m: c for m, c in out.items() if c}


def _key(m: tuple) -> tuple:
    return (sum(m), tuple(-e for e in reversed(m)))


def _reduce(f: dict, divisors: list) -> dict:
    f = dict(f)
    rest = {}
    while f:
        lm = max(f, key=_key)
        lc = f[lm]
        for g in divisors:
            gm = max(g, key=_key)
            if all(a >= b for a, b in zip(lm, gm)):
                shift = tuple(a - b for a, b in zip(lm, gm))
                s = lc * pow(g[gm], P - 2, P) % P
                for m, c in g.items():
                    mm = tuple(a + b for a, b in zip(shift, m))
                    v = (f.get(mm, 0) - s * c) % P
                    if v:
                        f[mm] = v
                    else:
                        f.pop(mm, None)
                break
        else:
            rest[lm] = f.pop(lm)
    return rest


def _chunk() -> int:
    rng = random.Random(7)

    def poly():
        return {tuple(rng.randrange(3) for _ in range(5)): rng.randrange(1, P) for _ in range(5)}

    divisors = [poly() for _ in range(4)]
    return len(_reduce(_mul(poly(), poly()), divisors))


def warm_up() -> None:
    """Untimed samples, so that the interpreter has specialised the code
    before the first timed one (a fresh process's first sample is slower)."""
    for _ in range(8):
        _chunk()


def probe(samples: list, n: int = 1) -> None:
    """Time n identical samples with the collector paused; append each."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(n):
            started = time.perf_counter()
            _chunk()
            samples.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
