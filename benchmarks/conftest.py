"""Shared benchmark infrastructure.

Every benchmark regenerates one of the paper's tables or figures.  Two
scales are supported:

* **default** (CI scale): reduced (k, t) grids and subsampled data so the
  whole suite runs in a few minutes;
* **full** (``REPRO_FULL=1``): the paper's complete grids on the full-size
  surrogates — budget tens of minutes, dominated by Algorithm 2's
  O(n^3/k) cells, exactly as Figure 5 predicts.

Each benchmark writes its rendered paper-style table to
``benchmarks/results/<name>.txt`` (and prints it, visible with ``-s``), so
measured numbers can be quoted verbatim.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.data import load_hcd, load_mcd, load_patient_discharge

#: Full-scale mode switch (paper grids + full-size data).
FULL = os.environ.get("REPRO_FULL", "") == "1"

#: The paper's parameter grids (Tables 1-3).
PAPER_KS = (2, 5, 10, 15, 20, 25, 30)
PAPER_TS = (0.01, 0.05, 0.09, 0.13, 0.17, 0.21, 0.25)

RESULTS_DIR = Path(__file__).parent / "results"


def write_result(name: str, text: str) -> None:
    """Persist a rendered table and echo it for ``-s`` runs."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}")


@pytest.fixture(scope="session")
def mcd():
    """Full-size MCD surrogate (1,080 records, like the paper)."""
    return load_mcd()


@pytest.fixture(scope="session")
def hcd():
    """Full-size HCD surrogate (1,080 records)."""
    return load_hcd()


@pytest.fixture(scope="session")
def mcd_half():
    """Half-size MCD for the Algorithm-2-heavy default sweeps."""
    return load_mcd(n=540)


@pytest.fixture(scope="session")
def hcd_half():
    return load_hcd(n=540)


@pytest.fixture(scope="session")
def patient_discharge():
    """Patient Discharge surrogate at benchmark scale.

    Algorithm 2 is O(n^3/k); the default subsample keeps the Figure 5/6
    benches inside CI budgets.
    """
    return load_patient_discharge(n=3000 if FULL else 1000)
