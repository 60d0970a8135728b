"""Deterministic RNG stream splitting for reproducible campaigns.

Every random draw in the simulator comes from a substream derived from a
single master seed and an integer key path.  The scheme is counter-based
(numpy SeedSequence spawn keys), so streams are independent of each other
and of the order in which they are created.  Parameter sweeps that share a
(master seed, trial id) therefore see identical fault draws and identical
measurement noise, which is what makes grid cells comparable.

Key layout (first key component is a domain tag):

    TRIAL_SETUP, trial_id            -> initial epoch + fault permutation
    EPOCH_NOISE, trial_id, epoch_idx -> range noise for one epoch of one trial (satfd detect: 0, k)
    CALIBRATION, epoch_idx           -> range noise for threshold sampling
    TRAINING                         -> train_predictor's initial weights and shuffles
    TRAINING, 0                      -> build_training_set's draw of geometries
    TRAINING, 1, geometry_idx        -> noise realizations for one training geometry

check_seed refuses a master seed that substream cannot take, by its field.
"""

import numpy as np

TRIAL_SETUP = 0
EPOCH_NOISE = 1
CALIBRATION = 2
TRAINING = 3


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the given (master seed, key path)."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return np.random.default_rng(seq)


def check_seed(seed: int, field: str) -> None:
    """Refuse a negative master seed (errors name field)."""
    if seed < 0:
        raise ValueError(f"{field} must be >= 0, got {seed}")
