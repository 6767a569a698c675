"""Nested-scope D002 corpus: constant seeds outside top-level bodies.

A seed is checked wherever the code that builds the RNG runs: in a def
under ``try``, in a class body, in a default argument and a decorator
argument (both run where the def stands), and in a lambda body. Every
``# flagged`` line must carry D002.
"""

import random


def seeded(rng):
    def wrap(func):
        return func
    return wrap


def build_streams(names):
    try:
        def make():
            return random.Random(1234)  # flagged
    finally:
        names.clear()
    return make


class Profile:
    JITTER = random.Random(99)  # flagged


def draw(rng=random.Random(5)):  # flagged
    return rng.random()


@seeded(random.Random(3))  # flagged
def tick():
    return None


STREAMS = {"arrivals": lambda: random.Random(11)}  # flagged
