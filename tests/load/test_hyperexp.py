"""Tests for the degenerate hyperexponential load model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LoadModelError
from repro.load.hyperexp import HyperexponentialLoadModel
from repro.load.stats import trace_stats
from tests.load.oracles import reference_hyperexp_build, reference_lifetime


def segment_bits(trace):
    """Segments with exact float bit patterns (``float.hex`` also rejects
    an int breakpoint where the oracle has a float)."""
    return [(start.hex(), end.hex(), n) for start, end, n in trace.segments()]


def test_parameter_validation():
    with pytest.raises(LoadModelError):
        HyperexponentialLoadModel(mean_lifetime=0.0)
    with pytest.raises(LoadModelError):
        HyperexponentialLoadModel(mean_lifetime=10.0, utilization=-0.1)
    with pytest.raises(LoadModelError):
        HyperexponentialLoadModel(mean_lifetime=10.0, branch_prob=0.0)
    with pytest.raises(LoadModelError):
        HyperexponentialLoadModel(mean_lifetime=10.0, branch_prob=1.5)


def test_arrival_rate_keeps_offered_load_constant():
    short = HyperexponentialLoadModel(mean_lifetime=10.0, utilization=0.5)
    long = HyperexponentialLoadModel(mean_lifetime=1000.0, utilization=0.5)
    assert short.arrival_rate * 10.0 == pytest.approx(0.5)
    assert long.arrival_rate * 1000.0 == pytest.approx(0.5)


def test_cv_squared_formula():
    assert HyperexponentialLoadModel(10.0, branch_prob=0.1).cv_squared == (
        pytest.approx(19.0))
    assert HyperexponentialLoadModel(10.0, branch_prob=1.0).cv_squared == (
        pytest.approx(1.0))


def test_zero_utilization_is_idle_forever():
    model = HyperexponentialLoadModel(mean_lifetime=60.0, utilization=0.0)
    trace = model.build(np.random.default_rng(0), 1_000.0)
    assert trace.value_at(100_000.0) == 0


def test_mean_load_converges_to_utilization():
    # M/G/inf: the long-run mean number in system equals the offered rho,
    # insensitively to the service distribution.
    rho = 0.6
    model = HyperexponentialLoadModel(mean_lifetime=120.0, utilization=rho,
                                      branch_prob=0.2)
    means = []
    for seed in range(8):
        trace = model.build(np.random.default_rng(seed), 200_000.0)
        means.append(trace_stats(trace, 0, 200_000.0).mean_load)
    assert np.mean(means) == pytest.approx(rho, rel=0.15)


def test_multiple_simultaneous_processes_occur():
    model = HyperexponentialLoadModel(mean_lifetime=600.0, utilization=1.5,
                                      branch_prob=0.5)
    trace = model.build(np.random.default_rng(3), 50_000.0)
    assert trace_stats(trace, 0, 50_000.0).max_load >= 2


def test_lifetime_sampling_matches_mean():
    model = HyperexponentialLoadModel(mean_lifetime=100.0, branch_prob=0.1)
    rng = np.random.default_rng(0)
    samples = [reference_lifetime(model, rng) for _ in range(20_000)]
    assert np.mean(samples) == pytest.approx(100.0, rel=0.1)
    # Degenerate branch: most samples are exactly zero.
    zero_fraction = np.mean([s == 0.0 for s in samples])
    assert zero_fraction == pytest.approx(0.9, abs=0.02)


def test_heavy_tail_vs_plain_exponential():
    heavy = HyperexponentialLoadModel(100.0, branch_prob=0.1)
    plain = HyperexponentialLoadModel(100.0, branch_prob=1.0)
    rng_h = np.random.default_rng(1)
    rng_p = np.random.default_rng(1)
    h = [reference_lifetime(heavy, rng_h) for _ in range(20_000)]
    p = [reference_lifetime(plain, rng_p) for _ in range(20_000)]
    assert np.std(h) > 2.0 * np.std(p)


def test_deterministic_given_seed():
    model = HyperexponentialLoadModel(60.0, utilization=0.5)
    a = model.build(np.random.default_rng(5), 10_000.0)
    b = model.build(np.random.default_rng(5), 10_000.0)
    assert a.segments() == b.segments()


def test_lazy_extension_consistent_with_eager():
    model = HyperexponentialLoadModel(60.0, utilization=0.5)
    lazy = model.build(np.random.default_rng(8), 100.0)
    eager = model.build(np.random.default_rng(8), 50_000.0)
    for t in (50.0, 1_000.0, 20_000.0):
        assert lazy.value_at(t) == eager.value_at(t)
    # Grown in several lazy steps to the eager horizon, the trace is the
    # eager one segment for segment.
    assert lazy.horizon < eager.horizon
    lazy._extender(lazy, eager.horizon)
    assert segment_bits(lazy) == segment_bits(eager)


def test_counts_never_negative():
    model = HyperexponentialLoadModel(30.0, utilization=0.8, branch_prob=0.3)
    trace = model.build(np.random.default_rng(11), 20_000.0)
    assert all(v >= 0 for _s, _e, v in trace.segments())


def test_describe_mentions_parameters():
    text = HyperexponentialLoadModel(60.0, utilization=0.4).describe()
    assert "60" in text and "0.4" in text


# -- stream order: the bulk extender against the per-event oracle -----------


@given(lifetime=st.floats(min_value=1.0, max_value=5_000.0),
       utilization=st.floats(min_value=0.01, max_value=3.0),
       branch_prob=st.floats(min_value=0.01, max_value=1.0),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       fractions=st.lists(st.floats(min_value=0.0, max_value=30.0),
                          min_size=1, max_size=6),
       hit=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=150, deadline=None)
def test_bulk_extender_matches_per_event_oracle(lifetime, utilization,
                                                branch_prob, seed,
                                                fractions, hit):
    """Same segments, bit for bit, and the same generator state after
    every extension -- the same draws in the same order.  One horizon
    lands exactly on an event time, where the event at the horizon is
    consumed (its draws made) before the extension returns."""
    model = HyperexponentialLoadModel(lifetime, utilization=utilization,
                                      branch_prob=branch_prob)
    horizons = sorted(f * lifetime for f in fractions)
    probe = reference_hyperexp_build(model, np.random.default_rng(seed),
                                     horizons[-1])
    events = [start for start, _end, _n in probe.segments()
              if start > max(horizons[0], 1.0)]
    if events:
        horizons = sorted(horizons + [events[hit % len(events)]])

    fast_rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    fast = model.build(fast_rng, horizons[0])
    ref = reference_hyperexp_build(model, ref_rng, horizons[0])
    assert segment_bits(fast) == segment_bits(ref)
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state
    for horizon in horizons[1:]:
        fast._extender(fast, horizon)
        ref._extender(ref, horizon)
        assert fast.horizon == ref.horizon
        assert segment_bits(fast) == segment_bits(ref)
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


class ScriptedRng:
    """Replays integer-valued draws so arrivals, departures and extension
    horizons can coincide exactly; counts every draw made."""

    def __init__(self, uniforms, exponentials):
        self.uniforms = uniforms
        self.exponentials = exponentials
        self.draws = []

    def random(self):
        value = self.uniforms[len(self.draws) % len(self.uniforms)]
        self.draws.append(("random", value))
        return value

    def exponential(self, scale):
        value = self.exponentials[len(self.draws) % len(self.exponentials)]
        self.draws.append(("exponential", scale, value))
        return value


@pytest.mark.parametrize("horizons", [
    [float(h) for h in range(1, 61)],       # every event lands on one
    [5, 5, 11, 11, 17, 30, 60],              # int horizons become floats
    [2.5, 100.0],
])
def test_simultaneous_events_match_oracle(horizons):
    """All event times are integers: a departure ties an arrival (at 11),
    and extension horizons land on events, where only the first event at
    the horizon is consumed.  The bulk extender consumes exactly the
    oracle's events and draws, extension by extension."""
    model = HyperexponentialLoadModel(4.0, utilization=0.5, branch_prob=0.5)
    script = ([0.0, 0.9, 0.0, 0.0], [1.0, 2.0, 1.0, 3.0, 1.0, 2.0, 2.0])
    fast_rng, ref_rng = ScriptedRng(*script), ScriptedRng(*script)
    fast = model.build(fast_rng, horizons[0])
    ref = reference_hyperexp_build(model, ref_rng, horizons[0])
    for horizon in horizons[1:]:
        fast._extender(fast, horizon)
        ref._extender(ref, horizon)
        assert segment_bits(fast) == segment_bits(ref)
        assert fast_rng.draws == ref_rng.draws
    assert max(n for _s, _e, n in fast.segments()) >= 2
