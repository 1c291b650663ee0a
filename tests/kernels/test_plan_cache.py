"""Behavioural tests of the module-level plan cache."""

import numpy as np
import pytest

from repro.kernels import plan as plan_module
from repro.kernels.plan import (
    cached_plan,
    chirp_pulse,
    chirp_spectrum,
    clear_plan_cache,
    mfcc_plan,
    rfft_freqs,
)
from repro.signal.chirp import ChirpDesign, linear_chirp
from repro.signal.mfcc import MfccConfig


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def test_miss_builds_then_hit_returns_the_cached_plan():
    first = rfft_freqs(1024, 48_000.0)
    assert len(plan_module._CACHE) == 1
    assert rfft_freqs(1024, 48_000.0) is first
    assert len(plan_module._CACHE) == 1


def test_distinct_keys_distinct_plans():
    a = rfft_freqs(1024, 48_000.0)
    b = rfft_freqs(2048, 48_000.0)
    c = rfft_freqs(1024, 44_100.0)
    assert a.size != b.size
    assert not np.array_equal(a, c)
    assert len(plan_module._CACHE) == 3


def test_equal_configs_share_a_plan():
    cfg_a = MfccConfig()
    cfg_b = MfccConfig()  # equal by value, distinct object
    assert mfcc_plan(cfg_a) is mfcc_plan(cfg_b)


def test_cached_arrays_are_read_only():
    freqs = rfft_freqs(256, 48_000.0)
    assert not freqs.flags.writeable
    with pytest.raises(ValueError):
        freqs[0] = 1.0
    plan = mfcc_plan(MfccConfig())
    for array in (plan.window, plan.filterbank, plan.dct_basis, plan.dct_scale):
        assert not array.flags.writeable


def test_chirp_plans_match_direct_synthesis():
    design = ChirpDesign()
    pulse = chirp_pulse(design)
    np.testing.assert_array_equal(pulse, linear_chirp(design))
    spec = chirp_spectrum(design, 4096)
    np.testing.assert_array_equal(spec, np.fft.rfft(linear_chirp(design), 4096))


def test_eviction_at_capacity():
    for i in range(plan_module._MAX_ENTRIES):
        cached_plan(("synthetic", i), lambda i=i: i)
    assert len(plan_module._CACHE) == plan_module._MAX_ENTRIES
    cached_plan(("synthetic", plan_module._MAX_ENTRIES), lambda: -1)
    assert len(plan_module._CACHE) == plan_module._MAX_ENTRIES
    # The oldest key was evicted, so re-requesting it rebuilds its value;
    # a key still cached keeps the value it was built with.
    assert cached_plan(("synthetic", 0), lambda: "rebuilt") == "rebuilt"
    assert cached_plan(("synthetic", 2), lambda: "rebuilt") == 2


def test_clear_resets_everything():
    first = rfft_freqs(512, 48_000.0)
    clear_plan_cache()
    assert len(plan_module._CACHE) == 0
    rebuilt = rfft_freqs(512, 48_000.0)
    assert rebuilt is not first
    np.testing.assert_array_equal(rebuilt, first)
