"""Quickstart: publish a smart-meter corpus under user-level ε-DP.

Generates the synthetic California corpus, places the households on a
grid, runs the full STPT pipeline (ε_total = 30, split 10/20 as in the
paper) and answers a few range queries on the sanitized release.

Run:  python examples/quickstart.py
"""

from repro import STPT, STPTConfig, RangeQuery, build_matrices, generate_dataset
from repro.core.pattern import PatternConfig
from repro.data import clip_factor_of, place_households
from repro.queries import make_workload, workload_mre

GRID = (16, 16)
T_TRAIN = 40


def main() -> None:
    # 1. Data: 250 households, 88 days, hourly -> daily readings.
    dataset = generate_dataset("CA", n_days=88, rng=0)
    daily = dataset.daily_readings()
    clip = clip_factor_of(daily)
    print(f"dataset: {dataset.spec.name}, {dataset.n_households} households, "
          f"{dataset.n_hours} hourly readings")

    # 2. Place households and build the consumption matrices.
    cells = place_households(dataset.n_households, GRID, "uniform", rng=1)
    cons, norm = build_matrices(daily, cells, GRID, clip)
    print(f"consumption matrix: {cons.shape} (grid x grid x days)")

    # 3. Publish with STPT. The first T_TRAIN days feed private pattern
    #    recognition; the rest are sanitized and released.
    config = STPTConfig(
        epsilon_pattern=10.0,
        epsilon_sanitize=20.0,
        t_train=T_TRAIN,
        quantization_levels=20,
        pattern=PatternConfig(epochs=8, embed_dim=16, hidden_dim=16),
    )
    result = STPT(config, rng=2).publish(norm, clip_scale=clip)
    print(f"published {result.sanitized_kwh.shape} in "
          f"{result.elapsed_seconds:.1f}s, ε spent = {result.epsilon_spent:.1f}")

    # 4. Query the private release.
    test_cons = cons.time_slice(T_TRAIN)
    query = RangeQuery(x0=2, x1=6, y0=2, y1=6, t0=0, t1=7)
    true_value = query.evaluate(test_cons)
    private_value = query.evaluate(result.sanitized_kwh)
    print(f"\nexample query (4x4 region, first week):")
    print(f"  true consumption    = {true_value:10.1f} kWh")
    print(f"  private consumption = {private_value:10.1f} kWh")

    # 5. Utility over the paper's three workload classes.
    print("\nmean relative error over 150 queries per class:")
    for kind in ("random", "small", "large"):
        queries = make_workload(kind, test_cons.shape, count=150, rng=3,
                                reference=test_cons)
        mre = workload_mre(queries, test_cons, result.sanitized_kwh)
        print(f"  {kind:>6s}: {mre:6.1f}%")


if __name__ == "__main__":
    main()
