"""Pattern-recognition phase of STPT (Section 4.2, Alg. 1 lines 3-14).

Consumes ``epsilon_pattern`` to produce ``C_pattern`` — a DP estimate
of the normalized consumption matrix over the *test* horizon:

1. build the spatio-temporal quadtree over the training slice;
2. sanitize every level's representative series (Theorem 6 sensitivities);
3. sweep a window over the stacked sanitized series to form training
   pairs and fit a sequence forecaster (attention + GRU by default);
4. seed each spatial cell with the last window of its finest sanitized
   level and roll the model forward autoregressively.

Everything the model ever sees is already differentially private, so
``C_pattern`` is safe to use and release by post-processing
(Theorem 3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.quadtree import (
    QuadtreeLevel,
    SpatioTemporalQuadtree,
    max_depth_for_grid,
    sanitize_levels,
)
from repro.dp.budget import BudgetAccountant
from repro.exceptions import ConfigurationError, TrainingError
from repro.nn.models import SequenceForecaster, make_forecaster
from repro.nn.module import stack_members
from repro.nn.optimizers import RMSProp
from repro.nn.training import Trainer, make_windows
from repro.rng import RngLike, derive_seed, ensure_rng

#: Flow-analysis role (repro.lint.flow): the sanitized quadtree is a
#: charged release of the training matrix.
__flow_sanitizers__ = ("PatternRecognizer.sanitize_tree",)


@dataclass(frozen=True)
class PatternConfig:
    """Hyper-parameters of the pattern-recognition phase.

    Defaults follow Appendix C of the paper, scaled down for a single
    CPU (embedding 128 -> 32, hidden 64 -> 32); the experiment presets
    restore the paper's values at paper scale.
    """

    model_family: str = "gru"
    window: int = 6
    depth: int | None = None     # None -> log2(Cx), the paper's default
    embed_dim: int = 32
    hidden_dim: int = 32
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 1e-3
    use_attention: bool = True      # ablation: self-attention stage
    hierarchical_seeds: bool = True  # ablation: inverse-variance seeds
    period: int = 7                  # weekly cycle at day granularity; 0 = off

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ConfigurationError("window must be positive")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ConfigurationError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.period < 0:
            raise ConfigurationError("period must be non-negative")


@dataclass
class PatternResult:
    """Artifacts of a fitted pattern-recognition phase."""

    model: SequenceForecaster
    sanitized_levels: list[QuadtreeLevel]
    training_seconds: float
    final_training_loss: float
    config: PatternConfig
    epsilon_pattern: float
    t_train: int
    grid_shape: tuple[int, int]
    history: list[float] = field(default_factory=list)


class PatternRecognizer:
    """Runs the pattern-recognition phase end to end."""

    def __init__(
        self,
        epsilon_pattern: float,
        config: PatternConfig | None = None,
        rng: RngLike = None,
    ) -> None:
        if epsilon_pattern <= 0:
            raise ConfigurationError("epsilon_pattern must be positive")
        self.epsilon_pattern = epsilon_pattern
        self.config = config or PatternConfig()
        self._rng = ensure_rng(rng)
        self._result: PatternResult | None = None

    @property
    def result(self) -> PatternResult:
        if self._result is None:
            raise TrainingError("fit() has not been called")
        return self._result

    def sanitize_tree(
        self,
        norm_train_values: np.ndarray,
        accountant: BudgetAccountant | None = None,
    ) -> list[QuadtreeLevel]:
        """Phase 1: build the quadtree and release its noisy levels.

        This is the only budget-spending part of pattern recognition
        (``epsilon_pattern``, Theorem 6 sensitivities); everything after
        it is post-processing of the returned DP artifacts.
        """
        norm_train_values = np.asarray(norm_train_values, dtype=float)
        cx, cy, t_train = norm_train_values.shape
        depth = self.config.depth
        if depth is None:
            depth = max_depth_for_grid((cx, cy))

        tree = SpatioTemporalQuadtree(norm_train_values, depth)
        levels = tree.build_levels()
        return sanitize_levels(
            levels,
            self.epsilon_pattern,
            t_train,
            rng=self._rng,
            accountant=accountant,
        )

    def fit_sanitized(
        self,
        sanitized: list[QuadtreeLevel],
        t_train: int,
        grid_shape: tuple[int, int],
        peers: Sequence[
            tuple["PatternRecognizer", list[QuadtreeLevel], int, tuple[int, int]]
        ] = (),
    ) -> PatternResult:
        """Phase 2: train the forecaster on sanitized level series.

        Deterministic given the generator state — it consumes no raw
        data and spends no budget, which is what makes the training
        artifact safe to cache and replay.

        ``peers`` are further recognizers with this one's config, each
        with the arguments of its own call, ``(recognizer, sanitized,
        t_train, grid_shape)``. All of them train as one member stack
        (one :meth:`Trainer.fit <repro.nn.training.Trainer.fit>`), and
        each ends with the result its own call would have given, bit
        for bit; ``training_seconds`` is then an equal share of the
        stack's fit. Their windows must come out equally many.
        """
        jobs = [(self, sanitized, t_train, grid_shape), *peers]
        config = self.config
        if any(recognizer.config != config for recognizer, *__ in peers):
            raise ConfigurationError("peers must share this recognizer's config")
        windows = [
            make_windows(_training_series(job[1]), config.window) for job in jobs
        ]
        models = []
        seeds = []
        for recognizer, *__ in jobs:
            models.append(
                make_forecaster(
                    config.model_family,
                    window=config.window,
                    embed_dim=config.embed_dim,
                    hidden_dim=config.hidden_dim,
                    use_attention=config.use_attention,
                    rng=derive_seed(recognizer._rng),
                )
            )
            seeds.append(derive_seed(recognizer._rng))
        # One recognizer trains its plain model; several train a stack.
        stacked = len(jobs) > 1
        model = stack_members(models) if stacked else models[0]
        trainer = Trainer(
            model,
            optimizer=RMSProp(list(model.parameters()), lr=config.learning_rate),
            epochs=config.epochs,
            batch_size=config.batch_size,
            rng=seeds if stacked else seeds[0],
        )
        inputs = [x for x, __ in windows]
        targets = [y for __, y in windows]
        start = time.perf_counter()
        histories = (
            trainer.fit(inputs, targets) if stacked
            else [trainer.fit(inputs[0], targets[0])]
        )
        elapsed = (time.perf_counter() - start) / len(jobs)

        for (recognizer, levels, job_t_train, job_shape), member, history in zip(
            jobs, models, histories
        ):
            recognizer._result = PatternResult(
                model=member,
                sanitized_levels=levels,
                training_seconds=elapsed,
                final_training_loss=history.final_loss,
                config=config,
                epsilon_pattern=recognizer.epsilon_pattern,
                t_train=job_t_train,
                grid_shape=(int(job_shape[0]), int(job_shape[1])),
                history=list(history.epoch_losses),
            )
        return self.result

    def fit(
        self,
        norm_train_values: np.ndarray,
        accountant: BudgetAccountant | None = None,
    ) -> PatternResult:
        """Sanitize the quadtree and train the forecaster.

        ``norm_train_values`` is the training slice of the normalized
        consumption matrix, shape ``(Cx, Cy, T_train)``. Equivalent to
        :meth:`sanitize_tree` followed by :meth:`fit_sanitized`, which
        the staged pipeline calls separately so training can be cached
        while the noise release never is.
        """
        norm_train_values = np.asarray(norm_train_values, dtype=float)
        cx, cy, t_train = norm_train_values.shape
        sanitized = self.sanitize_tree(norm_train_values, accountant=accountant)
        return self.fit_sanitized(sanitized, t_train, (cx, cy))

    def _level_mean_variance(self, level: QuadtreeLevel) -> float:
        """Noise variance of a block's time-mean at one level."""
        eps_per_point = self.result.epsilon_pattern / self.result.t_train
        scale = level.sensitivity / eps_per_point
        return 2.0 * scale * scale / level.segment_length

    def _cell_level_estimates(self) -> np.ndarray:
        """Per-cell consumption *level* from the sanitized hierarchy.

        Coarse levels are nearly noise-free but spatially aggregated;
        fine levels resolve single cells but are noisy (Theorem 6).
        Each cell combines the time-means of its enclosing blocks with
        weights ``1 / (noise variance + heterogeneity)``, where a
        block's heterogeneity — the squared spatial deviation it hides
        — is estimated from the sanitized means of its children at the
        next finer level. All inputs are DP outputs (Theorem 3).
        """
        result = self.result
        levels = result.sanitized_levels
        cx, cy = result.grid_shape

        if not result.config.hierarchical_seeds:
            # Ablation variant: trust only the finest level's noisy
            # time-means, with no cross-level denoising.
            finest = levels[-1]
            return finest.series.mean(axis=1)[finest.block_map]

        level_means = [level.series.mean(axis=1) for level in levels]
        noise_vars = [self._level_mean_variance(level) for level in levels]

        # Heterogeneity of a block = expected squared deviation between
        # a *cell* and the block mean. By the variance decomposition it
        # accumulates recursively: spread across the block's children
        # plus the average heterogeneity inside each child. Estimated
        # bottom-up from the sanitized child means, corrected for their
        # noise; the finest blocks hide no visible structure.
        hetero: list[np.ndarray] = [np.zeros(l.n_blocks) for l in levels]
        for d in range(len(levels) - 2, -1, -1):
            level, child = levels[d], levels[d + 1]
            child_means = level_means[d + 1]
            for b in range(level.n_blocks):
                child_ids = np.unique(child.block_map[level.block_map == b])
                raw_var = float(np.var(child_means[child_ids]))
                between = max(0.0, raw_var - noise_vars[d + 1])
                within = float(np.mean(hetero[d + 1][child_ids]))
                hetero[d][b] = between + within

        numerator = np.zeros((cx, cy))
        weight_sum = np.zeros((cx, cy))
        for d, level in enumerate(levels):
            per_block_weight = 1.0 / np.maximum(
                noise_vars[d] + hetero[d], 1e-12
            )
            numerator += (per_block_weight * level_means[d])[level.block_map]
            weight_sum += per_block_weight[level.block_map]
        return numerator / weight_sum

    def _seed_windows(self) -> np.ndarray:
        """Per-cell seed windows: root temporal shape x cell level.

        The root series carries the macro temporal pattern at almost no
        noise cost; the hierarchical estimate supplies each cell's
        scale. The product seeds the autoregressive roll-out with both
        micro (spatial) and macro (temporal) structure, exactly the
        micro/macro decomposition Section 4.2 motivates.
        """
        result = self.result
        levels = result.sanitized_levels
        window = result.config.window
        cx, cy = result.grid_shape

        root = levels[0].series[0]
        if len(root) >= window:
            shape = root[-window:]
        else:
            shape = np.concatenate(
                [np.full(window - len(root), root[0]), root]
            )
        root_mean = float(np.mean(root))
        if abs(root_mean) < 1e-9:
            shape = np.ones(window)
        else:
            shape = shape / root_mean
        shape = np.clip(shape, 0.0, None)

        cell_levels = np.maximum(self._cell_level_estimates(), 0.0)
        seeds = cell_levels.reshape(cx * cy, 1) * shape[None, :]
        lo, hi = self._value_range()
        return np.clip(seeds, lo, hi)

    def _value_range(self) -> tuple[float, float]:
        """Plausible range of normalized cell values, from sanitized data.

        Cell values are sums over the households of a cell, so they may
        exceed one. A robust (99th percentile) bound over the sanitized
        series — pure post-processing — keeps Laplace tail spikes from
        inflating the range, with headroom for roll-out growth.
        """
        all_values = np.concatenate(
            [level.series.ravel() for level in self.result.sanitized_levels]
        )
        observed = float(np.percentile(all_values, 99.0))
        return 0.0, max(1.0, observed) * 1.5

    def generate(self, steps: int, rollout: str = "anchored") -> np.ndarray:
        """Produce ``C_pattern`` (Cx, Cy, steps) from the trained model.

        Two roll-out strategies are provided:

        * ``"anchored"`` (default): the model is rolled forward on the
          root representative series — the highest-SNR input it was
          trained on — and the resulting macro temporal shape is scaled
          by each cell's hierarchical level estimate. Level errors stay
          bounded because the autoregression never compounds per-cell
          noise.
        * ``"cell"``: every cell's seed window is rolled forward
          independently (the literal reading of Alg. 1); long roll-outs
          from noisy seeds can drift, which is measurable via
          :meth:`evaluate` and explored in the ablation benches.
        """
        if steps <= 0:
            raise ConfigurationError("steps must be positive")
        if rollout not in ("anchored", "cell"):
            raise ConfigurationError(
                f"rollout must be 'anchored' or 'cell', got {rollout!r}"
            )
        result = self.result
        cx, cy = result.grid_shape
        if rollout == "cell":
            predictions = result.model.predict_autoregressive(
                self._seed_windows(), steps, clip=self._value_range()
            )
            return predictions.reshape(cx, cy, steps)

        root = result.sanitized_levels[0].series[0]
        window = result.config.window
        if len(root) >= window:
            root_seed = root[-window:][None, :]
        else:
            root_seed = np.concatenate(
                [np.full(window - len(root), root[0]), root]
            )[None, :]
        # Keep the roll-out near the root's own scale, then normalize
        # the shape to mean one: slow autoregressive drift cancels and
        # only the *relative* temporal modulation survives.
        root_hi = max(float(np.max(np.abs(root))), 1e-9) * 2.0
        forecast = result.model.predict_autoregressive(
            root_seed, steps, clip=(0.0, root_hi)
        )[0]
        forecast_mean = float(np.mean(forecast))
        if forecast_mean > 1e-9:
            shape = forecast / forecast_mean
        else:
            shape = np.ones(steps)
        # A long MSE roll-out converges to a flat forecast, which would
        # erase the weekly cycle from C_pattern (and with it, the
        # partitioning's temporal resolution). The cycle is visible in
        # the sanitized root series, so modulate the forecast with the
        # day-of-period profile extracted from it — post-processing of
        # DP outputs (Theorem 3).
        if result.config.period > 1:
            shape = shape * self._periodic_profile(result, steps)
        # Macro consumption modulation is bounded in practice (daily /
        # weekly / seasonal factors); cap it so a degenerate model
        # cannot distort the spatial level estimates.
        shape = np.clip(shape, 0.0, 3.0)
        cell_levels = np.maximum(self._cell_level_estimates(), 0.0)
        return cell_levels[:, :, None] * shape[None, None, :]

    def _periodic_profile(self, result: PatternResult, steps: int) -> np.ndarray:
        """Day-of-period factors from the sanitized root series.

        The root covers training indices ``[0, segment_length)``; test
        index ``t`` corresponds to absolute day ``t_train + t``, so the
        profile is phase-aligned before being tiled over the horizon.
        """
        period = result.config.period
        root = result.sanitized_levels[0].series[0]
        start = result.sanitized_levels[0].time_start
        sums = np.zeros(period)
        counts = np.zeros(period)
        for offset, value in enumerate(root):
            residue = (start + offset) % period
            sums[residue] += value
            counts[residue] += 1
        with np.errstate(invalid="ignore"):
            profile = np.where(counts > 0, sums / np.maximum(counts, 1), 1.0)
        mean = profile[counts > 0].mean() if np.any(counts > 0) else 1.0
        if abs(mean) < 1e-9:
            return np.ones(steps)
        profile = np.clip(profile / mean, 0.5, 2.0)
        phases = (result.t_train + np.arange(steps)) % period
        return profile[phases]

    def evaluate(
        self, norm_test_values: np.ndarray, rollout: str = "anchored"
    ) -> dict[str, float]:
        """MAE/RMSE of ``C_pattern`` against the true normalized matrix.

        This is the metric of Figures 8a/8b/8e/8f. Note the comparison
        is per *cell*; the model predicts normalized cell sums.
        """
        norm_test_values = np.asarray(norm_test_values, dtype=float)
        if norm_test_values.ndim != 3:
            raise ConfigurationError("expected a 3-D test matrix")
        pattern = self.generate(norm_test_values.shape[2], rollout=rollout)
        errors = pattern - norm_test_values
        return {
            "mae": float(np.mean(np.abs(errors))),
            "rmse": float(np.sqrt(np.mean(errors**2))),
        }


def _training_series(sanitized: list[QuadtreeLevel]) -> list[np.ndarray]:
    """The level series a forecaster trains on, clipped to a plausible range.

    Series are stacked, not concatenated: windows never straddle two
    neighbourhoods (Section 4.2). Training copies are clipped to the
    plausible value range — Laplace tails at the noisy fine levels
    would otherwise dominate the regression (post-processing of DP
    outputs, so free of budget).
    """
    all_values = np.concatenate([level.series.ravel() for level in sanitized])
    observed_hi = max(1.0, float(np.percentile(all_values, 99.0)))
    return [
        np.clip(row, 0.0, observed_hi * 1.5)
        for level in sanitized
        for row in level.series
    ]

__all__ = [
    "PatternConfig",
    "PatternResult",
    "PatternRecognizer",
]
