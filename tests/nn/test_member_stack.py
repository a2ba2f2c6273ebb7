"""Member stacks train every member exactly as its own model.

``stack_members`` puts M same-architecture forecasters on a leading
member axis and ``Trainer.fit`` trains them with one forward, backward,
clip and optimizer step per batch. The contract pinned here is bit
identity: every member's parameters and every epoch loss equal those
of M separate ``Trainer.fit`` runs with the same seeds, for every
family ``make_forecaster`` builds, at batch shapes that exercise the
gemm edge cases, and with a clip that scales some members but not
others on the same step.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn.layers import Dropout, Linear
from repro.nn.models import make_forecaster
from repro.nn.module import Module, stack_members
from repro.nn.optimizers import RMSProp
from repro.nn.training import Trainer

FAMILIES = [
    ("rnn", True),
    ("rnn", False),
    ("gru", True),
    ("gru", False),
    ("lstm", True),
    ("lstm", False),
    ("transformer", True),
]


def member_data(members, samples, window, seed=3):
    """Per-member windows on different scales, so member norms differ."""
    rng = np.random.default_rng(seed)
    inputs = [rng.random((samples, window)) * (1 + m) for m in range(members)]
    targets = [rng.random(samples) * (1 + m) for m in range(members)]
    return inputs, targets


def build(family, attention, members, window, width):
    return [
        make_forecaster(
            family,
            window=window,
            # Attention needs an even embedding.
            embed_dim=2 * width if attention else width,
            hidden_dim=width,
            use_attention=attention,
            rng=100 + m,
        )
        for m in range(members)
    ]


def trainer(model, seed, batch, clip, epochs=2):
    return Trainer(
        model,
        optimizer=RMSProp(list(model.parameters()), lr=1e-2),
        epochs=epochs,
        batch_size=batch,
        grad_clip=clip,
        rng=seed,
    )


def train_both(family, attention, members=3, samples=23, window=4, width=4,
               batch=8, clip=5.0):
    """(separate models, their histories, stacked members, their histories)."""
    inputs, targets = member_data(members, samples, window)
    seeds = [200 + m for m in range(members)]
    alone = build(family, attention, members, window, width)
    alone_losses = [
        trainer(model, seed, batch, clip).fit(x, y).epoch_losses
        for model, seed, x, y in zip(alone, seeds, inputs, targets)
    ]
    stacked = build(family, attention, members, window, width)
    stack = stack_members(stacked)
    histories = trainer(stack, seeds, batch, clip).fit(inputs, targets)
    return alone, alone_losses, stacked, [h.epoch_losses for h in histories]


def assert_bit_identical(alone, alone_losses, stacked, stacked_losses):
    assert stacked_losses == alone_losses
    for model, member in zip(alone, stacked):
        theirs = dict(member.named_parameters())
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(param.value, theirs[name].value, err_msg=name)


class TestStackedTrainingIsExact:
    @pytest.mark.parametrize("family,attention", FAMILIES)
    def test_every_family_matches_separate_fits(self, family, attention):
        # 23 samples at batch 8: every epoch ends on a partial batch of 7.
        assert_bit_identical(*train_both(family, attention))

    @pytest.mark.parametrize("family,attention", [("gru", True), ("lstm", False)])
    def test_batch_one(self, family, attention):
        assert_bit_identical(*train_both(family, attention, samples=5, batch=1))

    @pytest.mark.parametrize("family,attention", FAMILIES)
    def test_width_one(self, family, attention):
        assert_bit_identical(*train_both(family, attention, width=1))

    def test_clip_scales_some_members_but_not_others(self):
        members, clip = 4, 0.5
        inputs, targets = member_data(members, 40, 4)
        stack = stack_members(build("gru", True, members, 4, 4))
        fitted = trainer(stack, [200 + m for m in range(members)], 8, clip)
        norms = []
        clip_grad_norm = fitted.optimizer.clip_grad_norm

        def recording(max_norm):
            total = clip_grad_norm(max_norm)
            norms.append(total.copy())
            return total

        fitted.optimizer.clip_grad_norm = recording
        fitted.fit(inputs, targets)
        clipped = np.array(norms) > clip
        mixed = clipped.any(axis=1) & ~clipped.all(axis=1)
        assert mixed.sum() >= 2
        assert_bit_identical(
            *train_both("gru", True, members=members, samples=40, clip=clip)
        )

    def test_members_get_the_weights_their_stack_trained(self):
        __, __, stacked, __ = train_both("gru", True)
        for member in stacked:
            assert not member.training
            assert all(param.members == 0 for param in member.parameters())


class TestStackRefusals:
    def test_unequal_sample_counts(self):
        stack = stack_members(build("gru", True, 2, 4, 4))
        inputs, targets = member_data(2, 10, 4)
        inputs[1], targets[1] = inputs[1][:9], targets[1][:9]
        with pytest.raises(ConfigurationError, match="unequal sample counts"):
            trainer(stack, [1, 2], 4, 5.0).fit(inputs, targets)

    def test_one_array_pair_per_member(self):
        stack = stack_members(build("gru", True, 2, 4, 4))
        inputs, targets = member_data(3, 10, 4)
        with pytest.raises(ConfigurationError, match="per member"):
            trainer(stack, [1, 2], 4, 5.0).fit(inputs, targets)

    @pytest.mark.parametrize(
        "options",
        [{"validation_fraction": 0.2}, {"validation_fraction": 0.2, "patience": 2}],
    )
    def test_no_validation_split_or_early_stopping(self, options):
        stack = stack_members(build("gru", True, 2, 4, 4))
        with pytest.raises(ConfigurationError, match="member stack"):
            Trainer(stack, rng=[1, 2], **options)

    @pytest.mark.parametrize("rng", [7, [1, 2, 3]])
    def test_one_generator_per_member(self, rng):
        stack = stack_members(build("gru", True, 2, 4, 4))
        with pytest.raises(ConfigurationError, match="generators"):
            Trainer(stack, rng=rng)

    def test_dropout_with_positive_rate_cannot_stack(self):
        class Noisy(Module):
            stackable = True

            def __init__(self):
                super().__init__()
                self.linear = Linear(2, 2, rng=0)
                self.drop = Dropout(0.5, rng=0)

        with pytest.raises(ConfigurationError, match="Dropout"):
            stack_members([Noisy(), Noisy()])

    def test_members_must_share_an_architecture(self):
        small = make_forecaster("gru", window=4, embed_dim=4, hidden_dim=4, rng=0)
        wide = make_forecaster("gru", window=4, embed_dim=4, hidden_dim=8, rng=0)
        with pytest.raises(ConfigurationError, match="architecture"):
            stack_members([small, wide])

    def test_optimizer_refuses_mixed_parameters(self):
        stack = stack_members(build("gru", True, 2, 4, 4))
        plain = Linear(2, 2, rng=0)
        with pytest.raises(ConfigurationError, match="member stack"):
            RMSProp(list(stack.parameters()) + list(plain.parameters()))
