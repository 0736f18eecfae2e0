"""The host-speed gauge: a fixed pure-Python loop, timed over and over in a
process of its own while a workload runs on the other CPU.

    python3 perfbench/gauge.py

The measuring machine is a share of a busy host, and the speed of the same
Python code drifts by up to 2x over minutes, on both CPUs at once.  run.py
therefore starts this gauge beside every timed run and scales each
repetition by

    GAUGE_S / median(loop times during the repetition)

so that it reads as seconds on a host that runs the loop in GAUGE_S.  A
set-up is too short for that; each set-up process times loop() once itself,
right after its set-up, and is scaled by that.  The loop does what gradlab
spends its time on, without calling gradlab: fraction-free elimination on
sparse dict rows of Python integers.  It never changes, so a change to
gradlab moves the scaled times and not the scale.

The gauge times the loop, then idles three times as long, so that it takes
a quarter of its CPU.  It stops when its stdin closes, or after
MAX_LIFETIME_S, and prints its samples as one JSON list of
[time.monotonic() at start, seconds] pairs.
"""

import json
import random
import select
import sys
import time

# the loop's median time on the host the baseline was measured on; it fixes
# the unit of the scaled times, and never changes
GAUGE_S = 0.06
# share of the gauge's CPU that the loop takes
DUTY = 0.25
MAX_LIFETIME_S = 300

_ROWS = 110


def _matrix():
    rng = random.Random(20130907)
    return [{c: rng.choice((-2, -1, 1, 1, 2))
             for c in rng.sample(range(_ROWS), 5)} for _ in range(_ROWS)]


_MATRIX = _matrix()


def loop():
    """Fraction-free (Bareiss) rank over Q of a fixed sparse matrix."""
    live = [dict(r) for r in _MATRIX if r]
    prev, rk = 1, 0
    while live:
        idx = min(range(len(live)), key=lambda i: len(live[i]))
        piv_row = live.pop(idx)
        col = min(piv_row)
        piv = piv_row[col]
        nxt = []
        for row in live:
            f = row.pop(col, 0)
            for c in set(row) | set(piv_row):
                if c == col:
                    continue
                q = (piv * row.get(c, 0) - f * piv_row.get(c, 0)) // prev
                if q:
                    row[c] = q
                else:
                    row.pop(c, None)
            if row:
                nxt.append(row)
        live, prev, rk = nxt, piv, rk + 1
    return rk


def main():
    samples = []
    end = time.monotonic() + MAX_LIFETIME_S
    while time.monotonic() < end:
        start = time.monotonic()
        loop()
        seconds = time.monotonic() - start
        samples.append((start, seconds))
        # the parent never writes: stdin turns readable only at its end
        if select.select([sys.stdin], [], [], seconds * (1 / DUTY - 1))[0]:
            break
    print(json.dumps(samples))


if __name__ == "__main__":
    main()
