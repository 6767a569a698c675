"""Nested-scope D004 corpus: float sums in hash order below the top level.

A class-body constant summed over a set, a ``+=`` loop in a def inside
a ``with`` block, and a lambda summing a set. Every ``# flagged`` line
must carry D004.
"""


class Calibration:
    TOTAL_W = sum(w for w in {0.5, 1.25, 2.0})  # flagged


def meter(lock, readings):
    with lock:
        def total():
            acc = 0.0
            for watts in set(readings):  # flagged
                acc += watts
            return acc
    return total


REDUCERS = {"total": lambda readings: sum(set(readings))}  # flagged
