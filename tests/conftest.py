import itertools

import numpy as np
import pytest

from margnet.domain import AttributeMeta, Dataset, Domain
from margnet.generator import TrainContext, candidate_index, forward, gram_marginals, loss_and_grad
from margnet.marginals import compute_marginal, selection_candidates


def categorical_domain(cards, prefix="a"):
    attrs = [
        AttributeMeta(f"{prefix}{i}", "categorical", c,
                      category_labels=[f"v{j}" for j in range(c)])
        for i, c in enumerate(cards)
    ]
    return Domain(attrs)


def random_dataset(cards, n, seed):
    rng = np.random.default_rng(seed)
    rows = np.stack([rng.integers(0, c, size=n) for c in cards], axis=1)
    return Dataset(rows=rows, cards=tuple(cards))


def brute_force_marginal(ds, attrs, cards):
    """Independent nested-loop counter; reference for compute_marginal."""
    sub_cards = [cards[a] for a in attrs]
    counts = np.zeros(int(np.prod(sub_cards)))
    for row in ds.rows:
        idx = 0
        for a, c in zip(attrs, sub_cards):
            idx = idx * c + int(row[a])
        counts[idx] += 1
    return counts


def loss_and_grad_on_copy(model, targets):
    """`loss_and_grad` through a context of its own over a copy of `model`,
    which stays unbound, so its weights can be edited between calls."""
    m = model.copy()
    return loss_and_grad(m, targets, TrainContext(m))


def exact_index(model, ds, specs=None):
    """`candidate_index` over `specs`, every selection candidate of `ds` by
    default, with their exact counts in `ds`, as `check` counts them."""
    specs = selection_candidates(ds.cards) if specs is None else specs
    return candidate_index(model, specs, (compute_marginal(ds, s).counts for s in specs))


def unselected_inputs(ds, model, prev_model, scale):
    """(soft, prev_soft, index) of `unselected_bound`, as `check` builds them:
    both models' soft marginals at the layout of every selection candidate."""
    index = exact_index(model, ds)
    soft, prev_soft = (gram_marginals(forward(m), scale, index.layout)
                       for m in (model, prev_model))
    return soft, prev_soft, index


def uniform_synth(cards, n, seed):
    """Uniform-random synthesizer baseline: every cell equally likely."""
    return random_dataset(cards, n, seed)


@pytest.fixture
def toy3_domain():
    return categorical_domain([3, 3, 3])


@pytest.fixture
def toy3_dataset(toy3_domain):
    return random_dataset(toy3_domain.cards, 500, seed=11)
