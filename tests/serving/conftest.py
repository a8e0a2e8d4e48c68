"""Shared fixtures for the serving suite.

One module-scoped fitted model and a couple of serving batches, built
from a coarsened ("grid") income-shaped table so that distinct records
frequently share encoded quasi-identifier rows — exactly the repeat
traffic the transform cache exists for — and exact distance ties
exercise the tie rule through the coalescing path.
"""

import numpy as np
import pytest

from repro import Anonymizer, KAnonymity, TCloseness
from repro.data import AttributeRole, Microdata, numeric


def make_dataset(n: int, seed: int) -> Microdata:
    """Income-shaped table with coarsened QIs (plentiful repeats/ties)."""
    rng = np.random.default_rng(seed)
    columns, schema = {}, []
    for i in range(3):
        values = 30_000.0 * np.exp(0.5 * rng.standard_normal(n))
        columns[f"qi{i}"] = np.round(values / 10_000.0) * 10_000.0
        schema.append(numeric(f"qi{i}", role=AttributeRole.QUASI_IDENTIFIER))
    columns["secret"] = rng.permutation(np.arange(float(n)))
    schema.append(numeric("secret", role=AttributeRole.CONFIDENTIAL))
    return Microdata(columns, schema)


@pytest.fixture(scope="module")
def dataset():
    return make_dataset(400, 0)


@pytest.fixture(scope="module")
def fitted(dataset):
    return Anonymizer(KAnonymity(4) & TCloseness(0.4)).fit(dataset)


@pytest.fixture(scope="module")
def batch():
    return make_dataset(300, 1)
