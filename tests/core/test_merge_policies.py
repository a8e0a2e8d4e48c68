"""Tests for the merge-partner policy ablation hook in Algorithm 1."""

import numpy as np
import pytest

from repro.core import merge_to_t_closeness
from repro.data import AttributeRole, Microdata, numeric
from repro.microagg import mdav


@pytest.fixture
def data():
    rng = np.random.default_rng(21)
    n = 80
    return Microdata(
        {
            "q1": rng.normal(size=n),
            "q2": rng.normal(size=n),
            "secret": rng.permutation(np.arange(float(n))),
        },
        [
            numeric("q1", role=AttributeRole.QUASI_IDENTIFIER),
            numeric("q2", role=AttributeRole.QUASI_IDENTIFIER),
            numeric("secret", role=AttributeRole.CONFIDENTIAL),
        ],
    )


@pytest.mark.parametrize("policy", ["nearest-qi", "lowest-emd", "random"])
def test_all_policies_reach_t_closeness(data, policy):
    partition = mdav(data.qi_matrix(), 3)
    merged, emds, n_merges = merge_to_t_closeness(
        data, partition, 0.1, partner_policy=policy
    )
    assert emds.max() <= 0.1 + 1e-12
    assert merged.min_size >= 3


def test_lowest_emd_picks_the_emd_optimal_partner(data):
    """One lowest-emd step merges the pair minimizing the merged EMD."""
    from repro.core import ConfidentialModel

    partition = mdav(data.qi_matrix(), 2)
    model = ConfidentialModel(data)
    emds = model.partition_emds(list(partition.clusters()))
    worst = int(np.argmax(emds))
    # Pick t so that exactly one merge is needed.
    t = float(np.sort(emds)[-2])
    merged, _, n_merges = merge_to_t_closeness(
        data, partition, t, partner_policy="lowest-emd"
    )
    if n_merges == 1:
        members = list(partition.clusters())
        best = min(
            model.cluster_emd(np.concatenate([members[worst], members[g]]))
            for g in range(partition.n_clusters)
            if g != worst
        )
        new_emds = model.partition_emds(list(merged.clusters()))
        merged_cluster_emd = min(
            new_emds[g]
            for g, m in enumerate(merged.clusters())
            if len(m) > partition.max_size - 1
            or set(members[worst]) <= set(m.tolist())
        )
        assert merged_cluster_emd == pytest.approx(best)


@pytest.mark.parametrize("batch", [1, 7, 40])
def test_lowest_emd_batches_do_not_change_the_result(data, monkeypatch, batch):
    """Candidates are scored in batches of at most LOWEST_EMD_BATCH member
    ids; the running (float, exact, id) minimum picks the same partners,
    lowest id on exact ties, as one batch of every candidate."""
    from repro.core import merge

    partition = mdav(data.qi_matrix(), 2)
    whole = merge_to_t_closeness(data, partition, 0.05, partner_policy="lowest-emd")
    monkeypatch.setattr(merge, "LOWEST_EMD_BATCH", batch)
    split = merge_to_t_closeness(data, partition, 0.05, partner_policy="lowest-emd")
    assert whole[2] == split[2] > 0
    assert split[0] == whole[0]
    np.testing.assert_array_equal(split[1], whole[1])


def test_random_policy_deterministic_given_seed(data):
    partition = mdav(data.qi_matrix(), 2)
    a = merge_to_t_closeness(data, partition, 0.1, partner_policy="random", seed=5)
    b = merge_to_t_closeness(data, partition, 0.1, partner_policy="random", seed=5)
    assert a[0] == b[0]


def test_unknown_policy_rejected(data):
    partition = mdav(data.qi_matrix(), 2)
    with pytest.raises(ValueError, match="partner_policy"):
        merge_to_t_closeness(data, partition, 0.1, partner_policy="psychic")
