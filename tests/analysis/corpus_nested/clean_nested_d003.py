"""Clean counterpart of bad_nested_d003: every nested loop is sorted."""


def install_pollers(sim, queues):
    for queue in queues:
        def on_poll(now):
            for core in sorted(set(queue.cores)):
                sim.schedule(now, core)
        queue.register(on_poll)


if __debug__:
    def wake_all(sim, sleepers):
        for core in sorted(sleepers):
            sim.schedule(0, core)
else:
    def wake_all(sim, sleepers):
        for core in sorted(frozenset(sleepers)):
            sim.schedule(0, core)


def make_handler(sim, cores):
    class Handler:
        def fire(self):
            for core in sorted(frozenset(cores)):
                sim.schedule_at(0, core)
    return Handler


class Governor:
    class Step:
        def apply(self, sim, cores):
            for core in sorted(set(cores)):
                sim.schedule(0, core)
