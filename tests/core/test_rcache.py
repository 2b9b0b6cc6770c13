"""Result cache: canonical scenario digests and LRU semantics.

The digest contract: two scenario specs that induce the same per-input
CPDs must collide regardless of surface form (dict key order, float
spellings that decode to the same double, ``-0.0`` vs ``0.0``, the
order correlated groups were listed in), and any perturbed probability
must not.  The cache contract: a hit replays marginals bitwise-equal
to the propagation that filled it, insulated from mutation on either
side.
"""

import numpy as np
import pytest

from repro.bayesian.cpd import TabularCPD
from repro.circuits import suite
from repro.core.backend import estimate
from repro.core.inputs import CorrelatedGroupInputs, IndependentInputs
from repro.core.rcache import (
    ResultCache,
    _cpd_digest,
    scenario_digest,
)


@pytest.fixture(scope="module")
def c17():
    return suite.load_circuit("c17")


class TestScenarioDigest:
    def test_deterministic(self, c17):
        model = IndependentInputs(0.3)
        assert scenario_digest(c17, model) == scenario_digest(c17, model)

    def test_dict_key_order_is_canonical(self, c17):
        names = list(c17.inputs)
        forward = {name: 0.1 + 0.15 * i for i, name in enumerate(names)}
        backward = dict(reversed(list(forward.items())))
        assert list(forward) != list(backward)  # genuinely different order
        assert scenario_digest(c17, IndependentInputs(forward)) == \
            scenario_digest(c17, IndependentInputs(backward))

    def test_float_repr_aliases_collide(self, c17):
        # 0.1 + 0.2 and the literal 0.30000000000000004 are the same
        # double; 0.3 is a different double.
        alias_a = IndependentInputs(0.1 + 0.2)
        alias_b = IndependentInputs(0.30000000000000004)
        other = IndependentInputs(0.3)
        assert scenario_digest(c17, alias_a) == scenario_digest(c17, alias_b)
        assert scenario_digest(c17, alias_a) != scenario_digest(c17, other)

    def test_negative_zero_collides_with_zero(self):
        plus = TabularCPD.prior("a", np.array([0.5, 0.5, 0.0, 0.0]))
        minus = TabularCPD.prior("a", np.array([0.5, 0.5, -0.0, -0.0]))
        # Distinct bit patterns, equal numbers, identical propagation.
        assert _cpd_digest(plus) == _cpd_digest(minus)

    def test_correlated_group_listing_order_collides(self, c17):
        names = list(c17.inputs)
        g1, g2 = (names[0], names[1]), (names[2], names[3])
        listed = CorrelatedGroupInputs([g1, g2], rho=0.4)
        reversed_listing = CorrelatedGroupInputs([g2, g1], rho=0.4)
        assert scenario_digest(c17, listed) == \
            scenario_digest(c17, reversed_listing)

    def test_member_order_within_group_differs(self, c17):
        # (a, b) and (b, a) are different chain models: the copy edge
        # points the other way, so the induced CPDs differ.
        names = list(c17.inputs)
        chain = CorrelatedGroupInputs([(names[0], names[1])], rho=0.4)
        flipped = CorrelatedGroupInputs([(names[1], names[0])], rho=0.4)
        assert scenario_digest(c17, chain) != scenario_digest(c17, flipped)

    def test_perturbed_marginal_changes_digest(self, c17):
        base = IndependentInputs(0.3)
        nudged = IndependentInputs(0.3 + 1e-12)
        assert scenario_digest(c17, base) != scenario_digest(c17, nudged)

    def test_digest_covers_cpd_parents(self):
        # Same table, different parent: a different conditional, so a
        # different digest.
        table = np.full((4, 4), 0.25)
        on_a = TabularCPD("c", 4, table, ["a"])
        on_b = TabularCPD("c", 4, table, ["b"])
        assert _cpd_digest(on_a) != _cpd_digest(on_b)


class TestResultCacheLRU:
    @staticmethod
    def _estimate(c17, p):
        return estimate(c17, IndependentInputs(p), backend="junction-tree",
                        cache=None)

    def test_round_trip_is_bitwise(self, c17):
        cache = ResultCache(max_entries=4)
        result = self._estimate(c17, 0.3)
        cache.put(("fp", "digest"), result)
        payload = cache.get(("fp", "digest"))
        assert payload is not None
        for line, dist in result.distributions.items():
            assert np.array_equal(payload["distributions"][line], dist)

    def test_copies_insulate_both_sides(self, c17):
        cache = ResultCache(max_entries=4)
        result = self._estimate(c17, 0.3)
        line = next(iter(result.distributions))
        expect = result.distributions[line].copy()
        cache.put(("fp", "digest"), result)
        result.distributions[line][:] = -1.0  # producer mutates after put
        first = cache.get(("fp", "digest"))
        first["distributions"][line][:] = -2.0  # consumer mutates a hit
        second = cache.get(("fp", "digest"))
        assert np.array_equal(second["distributions"][line], expect)

    def test_lru_evicts_least_recently_used(self, c17):
        cache = ResultCache(max_entries=2)
        result = self._estimate(c17, 0.3)
        cache.put(("fp", "a"), result)
        cache.put(("fp", "b"), result)
        assert cache.get(("fp", "a")) is not None  # refresh "a"
        cache.put(("fp", "c"), result)  # over capacity: "b" goes
        assert cache.get(("fp", "b")) is None
        assert cache.get(("fp", "a")) is not None
        assert cache.get(("fp", "c")) is not None
        assert cache.evictions == 1

    def test_stats_and_byte_accounting(self, c17):
        cache = ResultCache(max_entries=1)
        result = self._estimate(c17, 0.3)
        size = sum(arr.nbytes for arr in result.distributions.values())
        cache.put(("fp", "a"), result)
        assert cache.bytes == size
        cache.put(("fp", "b"), result)  # evicts "a", same size
        assert cache.bytes == size
        cache.get(("fp", "b"))
        cache.get(("fp", "missing"))
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["evictions"] == 1
        assert stats["hit_rate"] == 0.5

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)
