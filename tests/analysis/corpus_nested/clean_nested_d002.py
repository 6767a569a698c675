"""Clean counterpart of bad_nested_d002: every seed is derived."""

import random

from repro.sim.rng import derive_stream


def seeded(rng):
    def wrap(func):
        return func
    return wrap


def build_streams(names, config):
    try:
        def make():
            return random.Random(derive_stream(config.seed, "make"))
    finally:
        names.clear()
    return make


class Profile:
    JITTER = random.Random(derive_stream(0, "jitter"))


def draw(rng=random.Random(derive_stream(0, "draw"))):
    return rng.random()


@seeded(random.Random(derive_stream(0, "tick")))
def tick():
    return None


STREAMS = {"arrivals": lambda config: random.Random(config.seed)}
