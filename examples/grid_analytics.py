"""Derived analytics on a private release (Section 3.2's indirect queries).

Publishes a city's consumption with STPT, then answers the questions a
grid planner actually asks — average load, peak demand, base load,
peak-to-average ratio, and the top-k hottest regions — all as pure
post-processing of the sanitized matrix, and compares each answer to
the ground truth it approximates.

Run:  python examples/grid_analytics.py
"""

from repro import STPT, STPTConfig, build_matrices, generate_dataset
from repro.core.pattern import PatternConfig
from repro.data import clip_factor_of, place_households
from repro.queries import (
    SpatialRegion,
    average_consumption,
    base_load,
    peak_demand,
    peak_to_average_ratio,
    top_k_regions,
)
from repro.queries.range_query import RangeQuery

GRID = (16, 16)
T_TRAIN = 40


def main() -> None:
    dataset = generate_dataset("TX", n_days=88, rng=60)
    daily = dataset.daily_readings()
    clip = clip_factor_of(daily)
    cells = place_households(dataset.n_households, GRID, "la", rng=61)
    cons, norm = build_matrices(daily, cells, GRID, clip)

    config = STPTConfig(
        epsilon_pattern=10.0, epsilon_sanitize=20.0, t_train=T_TRAIN,
        quantization_levels=20,
        pattern=PatternConfig(epochs=8, embed_dim=16, hidden_dim=16),
    )
    release = STPT(config, rng=62).publish(norm, clip_scale=clip)
    truth = cons.time_slice(T_TRAIN)
    private = release.sanitized_kwh
    city = SpatialRegion(0, GRID[0], 0, GRID[1])

    print(f"release: {private.shape}, ε = {release.epsilon_spent:.0f}\n")

    query = RangeQuery(4, 12, 4, 12, 0, 14)
    print("average consumption, central 8x8 region, first two weeks:")
    print(f"  true    {average_consumption(truth, query):8.2f} kWh/cell-day")
    print(f"  private {average_consumption(private, query):8.2f} kWh/cell-day")

    true_peak, true_when = peak_demand(truth, city)
    priv_peak, priv_when = peak_demand(private, city)
    print("\ncity-wide peak demand (indirect MAX via daily range queries):")
    print(f"  true    {true_peak:9.0f} kWh on day {true_when}")
    print(f"  private {priv_peak:9.0f} kWh on day {priv_when}")

    true_base, __ = base_load(truth, city)
    priv_base, __ = base_load(private, city)
    print("\ncity-wide base load (indirect MIN):")
    print(f"  true    {true_base:9.0f} kWh")
    print(f"  private {priv_base:9.0f} kWh")

    print("\npeak-to-average ratio:")
    print(f"  true    {peak_to_average_ratio(truth, city):6.3f}")
    print(f"  private {peak_to_average_ratio(private, city):6.3f}")

    print("\ntop-3 hottest 4x4 regions (battery candidates):")
    true_top = {(r.x0, r.y0) for r, __ in top_k_regions(truth, 4, 3)}
    for region, total in top_k_regions(private, 4, 3):
        marker = "  <- also top-3 in the truth" if (
            (region.x0, region.y0) in true_top
        ) else ""
        print(f"  ({region.x0:2d},{region.y0:2d})  {total:10.0f} kWh{marker}")


if __name__ == "__main__":
    main()
