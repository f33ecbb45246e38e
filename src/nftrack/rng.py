"""Counter-based random streams for reproducible Monte Carlo campaigns.

Every random draw in a campaign comes from a stream keyed by
(seed, trial, step, purpose).  Streams are mutually independent and do not
depend on evaluation order, so all combiner schemes in a campaign see
byte-identical pilot/noise realizations and trials can run in parallel
without sharing generator state.
"""

import numpy as np

# Stable purpose codes; extending the list is fine, reordering is not
# (it would silently change every campaign's random numbers).
PURPOSES = ("process", "obs", "pilot", "combiner")
_PURPOSE_CODE = {name: i for i, name in enumerate(PURPOSES)}


def stream(seed: int, trial: int, step: int, purpose: str) -> np.random.Generator:
    """Return the independent generator for one (trial, step, purpose) slot."""
    code = _PURPOSE_CODE[purpose]
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(trial, step, code))
    return np.random.default_rng(ss)
