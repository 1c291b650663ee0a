"""Admission control: typed rejections, ordering, retry-after honesty."""

from __future__ import annotations

import math

import pytest

from repro.errors import (
    AdmissionRejected,
    ConfigurationError,
    EarSonarError,
    ServiceError,
    ServiceStoppedError,
)
from repro.serve import AdmissionController, AdmissionPolicy


class TestPolicyValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(max_queue_depth=0)
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(retry_after_floor_s=-0.1)
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(retry_after_floor_s=math.nan)
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(retry_after_floor_s=math.inf)


class TestErrorTaxonomy:
    def test_service_errors_slot_into_the_hierarchy(self):
        rejection = AdmissionRejected(
            "too busy", reason="rate_limited", retry_after_s=1.5
        )
        assert isinstance(rejection, ServiceError)
        assert isinstance(rejection, EarSonarError)
        assert rejection.reason == "rate_limited"
        assert rejection.retry_after_s == 1.5
        assert isinstance(ServiceStoppedError("stopped"), ServiceError)

    def test_single_message_construction(self):
        # The taxonomy-wide contract: every error builds from one
        # positional message.
        assert AdmissionRejected("boom").reason == "queue_full"
        assert AdmissionRejected("boom").retry_after_s == 0.0


def check(controller, *, depth=0, est_wait_ms=0.0, rate_wait_s=0.0):
    controller.check(
        depth=depth, rate_wait_s=rate_wait_s, drain_ms=lambda: est_wait_ms
    )


class TestAdmissionController:
    def test_clean_request_is_admitted(self):
        controller = AdmissionController(AdmissionPolicy())
        check(controller)  # no exception

    def test_rate_limit_rejects_with_bucket_wait(self):
        controller = AdmissionController(AdmissionPolicy())
        with pytest.raises(AdmissionRejected) as excinfo:
            check(controller, rate_wait_s=0.4)
        assert excinfo.value.reason == "rate_limited"
        assert excinfo.value.retry_after_s == pytest.approx(0.4)

    def test_queue_full_rejects_at_capacity(self):
        controller = AdmissionController(AdmissionPolicy(max_queue_depth=4))
        check(controller, depth=3)
        with pytest.raises(AdmissionRejected) as excinfo:
            check(controller, depth=4, est_wait_ms=800.0)
        assert excinfo.value.reason == "queue_full"
        assert excinfo.value.retry_after_s == pytest.approx(0.8)

    def test_admission_never_reads_the_wait_estimate(self):
        def unreachable() -> float:
            raise AssertionError("estimate read for an admitted request")

        controller = AdmissionController(AdmissionPolicy(max_queue_depth=2))
        controller.check(depth=1, rate_wait_s=0.0, drain_ms=unreachable)

    def test_rate_limit_outranks_queue_full(self):
        controller = AdmissionController(AdmissionPolicy(max_queue_depth=1))
        with pytest.raises(AdmissionRejected) as excinfo:
            check(controller, depth=99, est_wait_ms=1e6, rate_wait_s=2.0)
        assert excinfo.value.reason == "rate_limited"

    def test_retry_after_is_floored(self):
        controller = AdmissionController(
            AdmissionPolicy(retry_after_floor_s=0.25)
        )
        with pytest.raises(AdmissionRejected) as excinfo:
            check(controller, rate_wait_s=0.001)
        assert excinfo.value.retry_after_s == 0.25
