"""Seeded RNG100 violations: generators crossing executor boundaries
through helper indirection, which only the interprocedural pass sees.

``run_container`` hides the generator in a list payload;
``run_via_wrapper`` forwards one through a helper whose parameter is
known to reach a ``.submit`` call. ``run_seeds`` ships plain seeds
derived from a generator — clean.
"""

from pkg.rngs import derive_seed, make_generator


def run_container(executor, fn):
    gen = make_generator(7)
    return executor.run(fn, [gen])  # seeded: generator inside the payload


def dispatch(executor, fn, payload):
    return executor.submit(fn, payload)


def run_via_wrapper(executor, fn):
    # seeded: helper's payload parameter crosses the boundary inside
    return dispatch(executor, fn, make_generator(3))


def run_seeds(executor, fn):
    seeds = [derive_seed(make_generator(s)) for s in range(4)]
    return executor.run(fn, seeds)
