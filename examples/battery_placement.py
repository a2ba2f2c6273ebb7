"""Grid-planning use case of Figure 3: move batteries with private data.

Consumers owning renewable sources are connected to mobile storage
elements. The planner never sees raw meter data — it estimates each
consumer group's surplus by intersecting the group's minimum bounding
rectangle with the *sanitized* consumption matrix, and relocates
batteries toward high-surplus groups.

Run:  python examples/battery_placement.py
"""

import numpy as np

from repro import STPT, RangeQuery, STPTConfig, build_matrices
from repro.core.pattern import PatternConfig
from repro.data import generate_dataset

GRID = (16, 16)
T_TRAIN = 40

#: Consumers owning renewable sources, by name and grid cell (x, y).
CONSUMERS = {"NW-1": (2, 2), "NW-2": (3, 2), "SE-1": (12, 12), "SE-2": (13, 13)}


def group_surplus(names, sanitized, horizon) -> float:
    """A group's surplus: its minimum bounding rectangle over the release.

    This is the construction of Section 3.2, so no raw data is touched.
    """
    xs = [CONSUMERS[name][0] for name in names]
    ys = [CONSUMERS[name][1] for name in names]
    mbr = RangeQuery(
        x0=min(xs), x1=max(xs) + 1,
        y0=min(ys), y1=max(ys) + 1,
        t0=horizon[0], t1=horizon[1],
    )
    return mbr.evaluate(sanitized)


def main() -> None:
    # A city with a hot production cluster in the south-east: place
    # most households there so the sanitized release shows the surplus.
    dataset = generate_dataset("CA", n_days=88, rng=20)
    clip = dataset.daily_clip_factor()
    rng = np.random.default_rng(21)
    n = dataset.n_households
    cells = np.empty((n, 2), dtype=int)
    hot = rng.random(n) < 0.7
    cells[hot, 0] = rng.integers(10, 16, size=hot.sum())
    cells[hot, 1] = rng.integers(10, 16, size=hot.sum())
    cells[~hot, 0] = rng.integers(0, 10, size=(~hot).sum())
    cells[~hot, 1] = rng.integers(0, 10, size=(~hot).sum())

    cons, norm = build_matrices(dataset.daily_readings(), cells, GRID, clip)
    config = STPTConfig(
        epsilon_pattern=10.0, epsilon_sanitize=20.0, t_train=T_TRAIN,
        quantization_levels=20,
        pattern=PatternConfig(epochs=6, embed_dim=16, hidden_dim=16),
    )
    release = STPT(config, rng=22).publish(norm, clip_scale=clip)
    sanitized = release.sanitized_kwh
    print(f"sanitized release: {sanitized.shape}, "
          f"ε = {release.epsilon_spent:.0f}")

    # The planner's view: battery B1 serves a cold north-west group; a
    # hot south-east group is unserved.
    cold_group, hot_group = ["NW-1", "NW-2"], ["SE-1", "SE-2"]
    b1_serves = list(cold_group)

    horizon = (0, sanitized.n_steps)
    print("\nestimated group surplus from the private release:")
    for label, group in [("north-west", cold_group), ("south-east", hot_group)]:
        surplus = group_surplus(group, sanitized, horizon)
        print(f"  {label:>10s}: {surplus:10.1f} kWh")

    # The Figure 3(b) revision: B1 swaps its group for the unserved one
    # when the unserved group's estimated surplus is strictly higher.
    old_surplus = group_surplus(b1_serves, sanitized, horizon)
    new_surplus = group_surplus(hot_group, sanitized, horizon)
    print("\nreassignment decisions:")
    if new_surplus > old_surplus:
        print(f"  battery B1: drop {b1_serves} ({old_surplus:.0f} kWh) "
              f"-> gain {hot_group} ({new_surplus:.0f} kWh)")
        b1_serves = list(hot_group)
    else:
        print("  (no move was justified)")
    print(f"\nB1 now serves: {b1_serves}")


if __name__ == "__main__":
    main()
