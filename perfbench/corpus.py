"""Seeded synthetic corpora shaped like the acceptance-test datasets.

The generators follow the logic of ``_gen_jester_corpus`` and
``_gen_movielens_corpus`` in ``tests/test_acceptance.py`` draw for draw; only
the seed is a parameter. With the default seeds they write byte-identical
files (``perfbench/selftest.py`` checks this). Jester cells are formatted
through a lookup table instead of ``np.char.mod``, which is several times
faster and gives the same bytes.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

JESTER_SEED = 20260814
MOVIELENS_SEED = 31415926
JESTER_USERS = 24983

# Every value a Jester cell can hold after np.round(np.clip(v, -10, 10), 2),
# keyed by cents + 1000, plus the 99.00 sentinel and "-0.00" (a rounded
# negative zero, which "%.2f" prints with its sign).
_CENTS = np.arange(-1000, 1001)
_CELL_TEXT = [f"{c / 100:.2f}" for c in _CENTS] + ["99.00", "-0.00"]
_SENTINEL_SLOT = len(_CENTS)
_NEG_ZERO_SLOT = len(_CENTS) + 1


def gen_jester(path: Path, seed: int = JESTER_SEED, n_users: int = JESTER_USERS) -> None:
    """~25k x 100 rating grid with 250 taste blocs of graded strength.

    A smaller ``n_users`` keeps the shape of every row; only the default
    reproduces the acceptance corpus.
    """
    rng = np.random.default_rng(seed)
    n_items, n_blocs = 100, 250
    bloc_of = rng.integers(0, n_blocs, n_users)
    item_pop = rng.normal(0.0, 1.5, n_items)
    bloc_dev = rng.normal(0.0, 2.4, (n_blocs, n_items))
    full = rng.random(n_users) < 0.55
    lens = np.where(full, 100, rng.integers(15, 36, n_users))

    grid = np.full((n_users, n_items), np.nan)
    for u in range(n_users):
        count = int(lens[u])
        rated = rng.permutation(n_items)[:count]
        vals = (
            item_pop[rated]
            + bloc_dev[bloc_of[u], rated]
            + rng.normal(0, 1.2, count)
        )
        grid[u, rated] = np.round(np.clip(vals, -10.0, 10.0), 2)

    slot = np.full(grid.shape, _SENTINEL_SLOT, dtype=np.int64)
    rated_mask = ~np.isnan(grid)
    cents = np.rint(grid[rated_mask] * 100).astype(np.int64)
    slot[rated_mask] = np.where(
        (cents == 0) & np.signbit(grid[rated_mask]), _NEG_ZERO_SLOT, cents + 1000
    )
    text = _CELL_TEXT
    lines = [
        str(int(lens[u])) + "," + ",".join([text[s] for s in row])
        for u, row in enumerate(slot.tolist())
    ]
    path.write_text("\n".join(lines) + "\n")


def gen_movielens(path: Path, seed: int = MOVIELENS_SEED) -> None:
    """Seeded 5,000-user subsample of a 12k-user event log, 1,200 movies."""
    rng = np.random.default_rng(seed)
    n_all, n_items, n_blocs = 12000, 1200, 100
    bloc_of = rng.integers(0, n_blocs, n_all)
    item_pop = rng.normal(0.0, 0.5, n_items)
    bloc_dev = rng.normal(0.0, 1.2, (n_blocs, n_items))
    weights = 1.0 / np.arange(1, n_items + 1) ** 0.8
    weights /= weights.sum()
    exact20 = rng.random(n_all) < 0.30
    lens = np.where(exact20, 20, 21 + rng.geometric(0.025, n_all).clip(0, 129))
    keep = set(rng.permutation(n_all)[:5000].tolist())

    lines = []
    for u in range(n_all):
        if u not in keep:
            continue
        count = int(lens[u])
        rated = rng.choice(n_items, size=count, replace=False, p=weights)
        scale = 1.0 if exact20[u] else 1.8
        base = 3.0 + item_pop[rated] + scale * bloc_dev[bloc_of[u], rated]
        vals = np.clip(np.rint(base + rng.normal(0, 0.7, count)), 1, 5).astype(int)
        lines.extend(
            f"{u}::{i}::{v}::{1000000 + j}"
            for j, (i, v) in enumerate(zip(rated.tolist(), vals.tolist()))
        )
    path.write_text("\n".join(lines) + "\n")


def generate(dataset: str, path: Path, seed: int, n_users: int | None = None) -> None:
    if dataset == "jester":
        gen_jester(path, seed, JESTER_USERS if n_users is None else n_users)
    elif n_users is None:
        gen_movielens(path, seed)
    else:
        raise ValueError("the movielens generator has a fixed user count")


if __name__ == "__main__":
    # python3 perfbench/corpus.py DATASET SEED PATH [N_USERS]
    dataset, seed, dest, *users = sys.argv[1:]
    generate(dataset, Path(dest), int(seed), int(users[0]) if users else None)
