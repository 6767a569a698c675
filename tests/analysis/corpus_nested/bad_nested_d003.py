"""Nested-scope D003 corpus: kernel feeds in defs below the top level.

Each loop sits in a def the module body does not hold directly: a poll
callback defined inside a ``for`` loop (one per queue, as the datapath
installs them), both defs of an ``if``/``else`` redefinition, a method
of a class defined inside a function, and a method of a nested class.
Every ``# flagged`` line must carry D003.
"""


def install_pollers(sim, queues):
    for queue in queues:
        def on_poll(now):
            for core in set(queue.cores):  # flagged
                sim.schedule(now, core)
        queue.register(on_poll)


if __debug__:
    def wake_all(sim, sleepers):
        for core in set(sleepers):  # flagged
            sim.schedule(0, core)
else:
    def wake_all(sim, sleepers):
        for core in frozenset(sleepers):  # flagged
            sim.schedule(0, core)


def make_handler(sim, cores):
    class Handler:
        def fire(self):
            for core in frozenset(cores):  # flagged
                sim.schedule_at(0, core)
    return Handler


class Governor:
    class Step:
        def apply(self, sim, cores):
            for core in set(cores):  # flagged
                sim.schedule(0, core)
