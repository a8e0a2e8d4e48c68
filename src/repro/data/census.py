"""Surrogate for the CASC "Census" evaluation data set.

The paper's first evaluation battery (Tables 1-3, Figures 6-7) uses the
"Census" reference data set from the European CASC project [Brand et al.]:
1,080 records with numerical attributes, of which the paper takes

* quasi-identifiers: ``TAXINC`` (taxable income amount) and ``POTHVAL``
  (total other persons income);
* confidential: ``FEDTAX`` (federal income tax liability) for the
  *moderately correlated data set* (MCD, r ≈ 0.52) and ``FICA`` (social
  security payroll deduction) for the *highly correlated data set*
  (HCD, r ≈ 0.92).

The CASC distribution site has been offline for years, so this module
generates a seeded surrogate with the same record count, the same attribute
names, income-shaped (right-skewed) quasi-identifier marginals, and — the
property the paper's analysis hinges on — the same two correlation regimes
between quasi-identifiers and confidential attribute.
"""

from __future__ import annotations

import numpy as np

from .attributes import AttributeRole, numeric
from .dataset import Microdata
from .synthetic import (
    dependent_latent,
    latent_factor_block,
    to_affine_positive,
    to_lognormal_income,
)

#: Number of records in the original Census data set.
CENSUS_N = 1080

#: Default generator seed (fixed so benches and tests are reproducible).
CENSUS_SEED = 19321080

#: Paper-reported multiple correlation between QIs and FEDTAX (MCD).
MCD_CORRELATION = 0.52

#: Paper-reported multiple correlation between QIs and FICA (HCD).
HCD_CORRELATION = 0.92

_QI_NAMES = ("TAXINC", "POTHVAL")


def load_census(n: int = CENSUS_N, seed: int = CENSUS_SEED) -> Microdata:
    """Generate the 4-attribute Census surrogate.

    Returns a :class:`Microdata` with columns ``TAXINC``, ``POTHVAL``
    (quasi-identifiers) and ``FEDTAX``, ``FICA`` (confidential), all
    numeric and tie-free with probability 1.

    Parameters
    ----------
    n:
        Number of records (1,080 reproduces the paper's setting).
    seed:
        RNG seed; the default pins the data used throughout this repo.
    """
    if n < 4:
        raise ValueError(f"need at least 4 records, got {n}")
    rng = np.random.default_rng(seed)

    # Two income-like quasi-identifiers sharing a moderate latent factor.
    latents, _ = latent_factor_block(rng, n, 2, shared_weight=0.6)
    taxinc = to_lognormal_income(latents[:, 0], median=32_000.0, sigma=0.65)
    pothval = to_lognormal_income(latents[:, 1], median=18_000.0, sigma=0.85)

    # The paper's correlation figure is measured between the *released*
    # quasi-identifier columns and the confidential attribute, so the
    # dependence is induced on the transformed (log-normal) columns: the
    # driver lives in the span of the released QIs, hence the multiple
    # correlation of the confidential latent on the QIs equals alpha.
    qi_std = np.column_stack(
        [
            (taxinc - taxinc.mean()) / taxinc.std(),
            (pothval - pothval.mean()) / pothval.std(),
        ]
    )
    driver = qi_std.sum(axis=1)

    fedtax_latent = dependent_latent(rng, driver, MCD_CORRELATION)
    fica_latent = dependent_latent(rng, driver, HCD_CORRELATION)

    # Affine maps preserve Pearson correlation exactly; centers sit five
    # spreads above zero so the positivity clip virtually never binds.
    fedtax = to_affine_positive(fedtax_latent, center=8_000.0, spread=1_600.0)
    fica = to_affine_positive(fica_latent, center=3_000.0, spread=600.0)

    schema = [
        numeric("TAXINC", role=AttributeRole.QUASI_IDENTIFIER),
        numeric("POTHVAL", role=AttributeRole.QUASI_IDENTIFIER),
        numeric("FEDTAX", role=AttributeRole.CONFIDENTIAL),
        numeric("FICA", role=AttributeRole.CONFIDENTIAL),
    ]
    return Microdata(
        {"TAXINC": taxinc, "POTHVAL": pothval, "FEDTAX": fedtax, "FICA": fica},
        schema,
    )


def load_mcd(n: int = CENSUS_N, seed: int = CENSUS_SEED) -> Microdata:
    """Moderately correlated data set: QIs + FEDTAX (r ≈ 0.52), FICA dropped."""
    census = load_census(n=n, seed=seed)
    return census.drop(["FICA"]).with_roles(
        quasi_identifiers=_QI_NAMES, confidential=["FEDTAX"]
    )


def load_hcd(n: int = CENSUS_N, seed: int = CENSUS_SEED) -> Microdata:
    """Highly correlated data set: QIs + FICA (r ≈ 0.92), FEDTAX dropped."""
    census = load_census(n=n, seed=seed)
    return census.drop(["FEDTAX"]).with_roles(
        quasi_identifiers=_QI_NAMES, confidential=["FICA"]
    )
