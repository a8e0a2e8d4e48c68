"""Surrogate for the California OSHPD Patient Discharge 2010 data set.

The paper's scalability and large-n utility experiments (Figures 5-6) use
the Patient Discharge Data 2010 of Californian hospitals (Cedars-Sinai
Medical Center subset): after removing records with missing values, 23,435
records remain, each with 7 quasi-identifier attributes (patient age, zip
code, admission date, ...) and one confidential attribute, the amount
charged for the hospital stay.  The reported multiple correlation between
the quasi-identifiers and the charge is only 0.129.

The real extract is distributed under a data-use agreement, so this module
generates a seeded surrogate with the same record count, the same
quasi-identifier dimensionality (7), realistic mixed-scale marginals
(discrete ages, day-of-year codes, skewed charges) and the same weak
QI-confidential dependence.
"""

from __future__ import annotations

import numpy as np

from .attributes import AttributeRole, numeric
from .dataset import Microdata
from .synthetic import (
    dependent_latent,
    discretize,
    latent_factor_block,
    to_lognormal_income,
)

#: Record count of the Cedars-Sinai subset after removing missing values.
PATIENT_DISCHARGE_N = 23_435

#: Default generator seed.
PATIENT_DISCHARGE_SEED = 20100523

#: Paper-reported multiple correlation between the 7 QIs and the charge.
PD_CORRELATION = 0.129

#: Attenuation of Pearson correlation caused by the log-normal transform of
#: the charge (corr(exp(sigma * X), X) for sigma = 0.7); the latent target is
#: scaled up by 1/attenuation so the released column hits ``PD_CORRELATION``.
_LOGNORMAL_ATTENUATION = 0.88

QI_NAMES = (
    "AGE",
    "ZIP_REGION",
    "ADMISSION_DOY",
    "LENGTH_OF_STAY",
    "SEVERITY",
    "N_PROCEDURES",
    "PAYER",
)

CONFIDENTIAL_NAME = "CHARGE"


def load_patient_discharge(
    n: int = PATIENT_DISCHARGE_N,
    seed: int = PATIENT_DISCHARGE_SEED,
) -> Microdata:
    """Generate the Patient Discharge surrogate.

    Returns a :class:`Microdata` with the seven quasi-identifiers named in
    :data:`QI_NAMES` (discrete numeric codes and counts, as in the original
    extract) and the confidential ``CHARGE`` column (continuous, tie-free).

    Parameters
    ----------
    n:
        Number of records.  The paper's extract has 23,435; the benchmark
        harness defaults to a subsample because Algorithm 2 is O(n^3/k).
    seed:
        RNG seed; the default pins the data used throughout this repo.
    """
    if n < 8:
        raise ValueError(f"need at least 8 records, got {n}")
    rng = np.random.default_rng(seed)

    # Seven weakly coupled latents: hospital QI attributes are nearly
    # independent of each other (age tells you little about payer code).
    latents, _ = latent_factor_block(rng, n, 7, shared_weight=0.25)

    age = discretize(46.0 + 19.0 * latents[:, 0], step=1.0, lo=0.0, hi=100.0)
    zip_region = discretize(
        45.0 + 18.0 * latents[:, 1], step=1.0, lo=0.0, hi=89.0
    )
    admission_doy = discretize(
        183.0 + 80.0 * latents[:, 2], step=1.0, lo=1.0, hi=365.0
    )
    length_of_stay = np.maximum(
        1.0, np.round(np.exp(1.1 + 0.7 * latents[:, 3]))
    )
    severity = discretize(3.0 + 1.1 * latents[:, 4], step=1.0, lo=1.0, hi=5.0)
    n_procedures = np.maximum(
        0.0, np.round(2.0 + 1.6 * latents[:, 5] + rng.standard_normal(n) * 0.5)
    )
    payer = discretize(4.0 + 1.8 * latents[:, 6], step=1.0, lo=0.0, hi=8.0)

    # The charge depends weakly on the clinical QIs (mostly stay length and
    # severity), calibrated so the multiple correlation of the released
    # charge on the 7 released QIs lands on the paper's 0.129.
    qi_matrix = np.column_stack(
        [age, zip_region, admission_doy, length_of_stay, severity, n_procedures, payer]
    )
    qi_std = (qi_matrix - qi_matrix.mean(axis=0)) / qi_matrix.std(axis=0)
    driver = (
        0.6 * qi_std[:, 3]  # length of stay
        + 0.3 * qi_std[:, 4]  # severity
        + 0.1 * qi_std[:, 5]  # procedures
    )
    alpha = min(1.0, PD_CORRELATION / _LOGNORMAL_ATTENUATION)
    charge_latent = dependent_latent(rng, driver, alpha)
    charge = to_lognormal_income(charge_latent, median=16_000.0, sigma=0.7)

    columns = {
        "AGE": age,
        "ZIP_REGION": zip_region,
        "ADMISSION_DOY": admission_doy,
        "LENGTH_OF_STAY": length_of_stay,
        "SEVERITY": severity,
        "N_PROCEDURES": n_procedures,
        "PAYER": payer,
        "CHARGE": charge,
    }
    schema = [
        numeric(name, role=AttributeRole.QUASI_IDENTIFIER) for name in QI_NAMES
    ] + [numeric(CONFIDENTIAL_NAME, role=AttributeRole.CONFIDENTIAL)]
    return Microdata(columns, schema)
