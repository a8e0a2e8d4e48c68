"""Unit contracts of the compute backend and the engine's selections.

Two kinds of guarantees are pinned here:

* **resolution** — ``None`` and ``"serial"`` give one shared instance,
  instances pass through, and any other name fails loudly, at the
  construction of every public entry point;
* **primitive equivalence** — ``eval_sq_distances`` fills the same buffer
  bitwise for every ``chunk_size`` (integer ties included),
  ``assign_nearest`` keeps the lowest-id tie rule and validates its input,
  and the engine's masked selections (farthest, nearest, k nearest) pick
  exactly what argmax/argmin/a stable sort over the reference distances
  pick, including on adversarial all-ties inputs.

The third primitive, ``refine_swaps``, has its own suite
(``test_refine_kernel.py``).
"""

import numpy as np
import pytest

from repro import Anonymizer, KAnonymity
from repro.backend import SerialBackend, accepts_backend, resolve_backend
from repro.distance.records import sq_distances_to
from repro.microagg import mdav
from repro.microagg.engine import ClusteringEngine
from repro.registry import RegistryError
from repro.serving import AnonymizationService


class TestRegistryAndResolution:
    def test_builtins_registered(self):
        """``"serial"`` is the one built-in name, and the error for any
        other lists exactly that."""
        assert isinstance(resolve_backend("serial"), SerialBackend)
        with pytest.raises(RegistryError, match=r"expected one of \['serial'\]$"):
            resolve_backend("threaded")

    def test_resolve_by_name_returns_shared_instance(self):
        first = resolve_backend("serial")
        assert isinstance(first, SerialBackend)
        assert resolve_backend("serial") is first

    def test_resolve_none_is_the_shared_instance(self):
        assert resolve_backend(None) is resolve_backend("serial")

    def test_resolve_instance_passthrough(self):
        class Subclass(SerialBackend):
            pass

        backend = Subclass()
        assert resolve_backend(backend) is backend

    def test_unknown_name_raises_listing_alternatives(self):
        for name in ("gpu", "threaded", "process"):
            with pytest.raises(ValueError, match="'serial'") as info:
                resolve_backend(name)
            assert isinstance(info.value, RegistryError)

    def test_bad_type_raises(self):
        with pytest.raises(TypeError):
            resolve_backend(42)

    def test_invalid_construction(self, tmp_path):
        """Entry points reject a retired name or a foreign type before doing
        any work, instead of silently running serial."""
        X = np.zeros((4, 1))
        with pytest.raises(ValueError, match="'serial'"):
            Anonymizer(KAnonymity(2), backend="threaded")
        with pytest.raises(ValueError, match="'serial'"):
            AnonymizationService(tmp_path, backend="process")
        with pytest.raises(ValueError, match="'serial'"):
            mdav(X, 2, backend="threaded")
        with pytest.raises(ValueError, match="'serial'"):
            ClusteringEngine(X, backend="process")
        with pytest.raises(TypeError):
            Anonymizer(KAnonymity(2), backend=object())

    def test_accepts_backend(self):
        def with_backend(X, k, *, backend=None):
            return None

        def without(X, k):
            return None

        def with_kwargs(X, k, **kwargs):
            return None

        assert accepts_backend(with_backend)
        assert not accepts_backend(without)
        assert not accepts_backend(with_kwargs)


#: Distance profiles that punish a wrong tie or masking rule.
ADVERSARIAL_VALUES = [
    np.zeros(100),  # all ties: id 0 must win everywhere
    np.concatenate([np.full(50, 2.0), np.full(50, 1.0), np.full(50, 2.0)]),
    np.arange(100.0)[::-1].copy(),
    np.array([np.inf] * 30 + [3.0] + [np.inf] * 30),
    np.array([-np.inf] * 9 + [1.0]),
]


def check_selections(values, dead=()):
    """Engine farthest/nearest over 1-D records == argmax/argmin of the
    reference distances over the live records (ties: lowest id)."""
    X = np.asarray(values, dtype=np.float64)[:, None]
    origin = np.zeros(1)
    engine = ClusteringEngine(X)
    dead = np.asarray(dead, dtype=np.int64)
    with np.errstate(invalid="ignore"):  # inf - inf in the unused running sum
        engine.kill(dead)
    live = np.setdiff1d(np.arange(len(X)), dead)
    d2 = sq_distances_to(X, origin)[live]
    assert engine.farthest(origin) == int(live[np.argmax(d2)])
    nearest, value = engine.nearest_with_value(origin)
    assert nearest == int(live[np.argmin(d2)])
    assert value == d2.min()


class TestPrimitiveEquivalence:
    """Serial primitives are invariant to row blocking, and the engine's
    selections equal their references — ties included."""

    def eval_sq(self, X, point, chunk_size=None):
        n = X.shape[0]
        out, tmp = np.empty(n), np.empty(n)
        SerialBackend().eval_sq_distances(X.T.copy(), point, out, tmp, n, chunk_size)
        return out

    @pytest.mark.parametrize("chunk_size", [None, 1, 7, 64])
    def test_eval_sq_distances_identical(self, chunk_size):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((501, 4))
        point = rng.standard_normal(4)
        np.testing.assert_array_equal(
            self.eval_sq(X, point, chunk_size), sq_distances_to(X, point)
        )

    def test_eval_sq_distances_integer_ties(self):
        rng = np.random.default_rng(1)
        X = rng.integers(0, 3, size=(300, 2)).astype(float)
        reference = sq_distances_to(X, X[5])
        assert (reference == 0.0).sum() > 1  # exact ties present
        for chunk_size in (None, 1, 7):
            out = self.eval_sq(X, X[5].copy(), chunk_size)
            np.testing.assert_array_equal(out, reference)

    @pytest.mark.parametrize("values", ADVERSARIAL_VALUES)
    def test_argmin_argmax_identical(self, values):
        check_selections(values)
        check_selections(values, dead=[0, 1])  # the tied winners masked out
        check_selections(values, dead=[len(values) - 1])

    def test_argminmax_random(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 200))
            values = rng.integers(0, 5, size=n).astype(float)
            dead = rng.choice(n, size=int(rng.integers(0, n)), replace=False)
            check_selections(values, dead)

    def test_kth_smallest_value(self):
        """The engine's k-nearest selection keeps every boundary tie: its
        result is the prefix of the stable (distance, id) sort."""
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 300))
            X = rng.integers(0, 8, size=(n, 2)).astype(float)
            engine = ClusteringEngine(X)
            engine.kill(rng.choice(n, size=int(rng.integers(0, n - 1)), replace=False))
            live = engine.alive_ids()
            point = X[int(rng.integers(0, n))].copy()
            k = int(rng.integers(1, live.size + 1))
            order = np.lexsort((live, sq_distances_to(X[live], point)))
            np.testing.assert_array_equal(
                engine.k_nearest(k, point), live[order[:k]]
            )

    def test_assign_nearest_identical_and_tie_rule(self):
        rng = np.random.default_rng(4)
        reps = rng.integers(0, 3, size=(23, 3)).astype(float)
        reps[7] = reps[3]  # duplicated representative: lowest id must win
        X = np.vstack([reps, rng.integers(0, 3, size=(400, 3)).astype(float)])
        out = SerialBackend().assign_nearest(X, reps)
        d2 = np.stack([sq_distances_to(X, rep) for rep in reps], axis=1)
        np.testing.assert_array_equal(out, np.argmin(d2, axis=1))
        assert out[7] == 3  # the duplicate resolves to the lower cluster id

    def test_assign_nearest_validation(self):
        backend = SerialBackend()
        with pytest.raises(ValueError):
            backend.assign_nearest(np.zeros((3, 2)), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            backend.assign_nearest(np.zeros((3, 2)), np.zeros((4, 3)))
