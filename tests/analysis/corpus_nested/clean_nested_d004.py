"""Clean counterpart of bad_nested_d004: every sum runs in sorted order."""


class Calibration:
    TOTAL_W = sum(w for w in sorted({0.5, 1.25, 2.0}))


def meter(lock, readings):
    with lock:
        def total():
            acc = 0.0
            for watts in sorted(set(readings)):
                acc += watts
            return acc
    return total


REDUCERS = {"total": lambda readings: sum(sorted(set(readings)))}
