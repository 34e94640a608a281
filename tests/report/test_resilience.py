"""The resilience report generator."""

import pytest

from repro.cache import configure_cache
from repro.core import Trident
from repro.core.propagation import ForwardPropagator
from repro.query import reset_query_stores
from repro.report import generate_report
from tests.conftest import cached_module, cached_profile


@pytest.fixture(scope="module")
def report():
    module = cached_module("hercules")
    profile, _ = cached_profile("hercules")
    return generate_report(module, profile, target_sdc=0.10, samples=400)


class TestReport:
    def test_overall_values(self, report):
        assert 0.0 <= report.overall_sdc <= 1.0
        assert 0.0 <= report.overall_crash <= 1.0
        assert report.dynamic_instructions > 0

    def test_per_function_breakdown(self, report):
        names = {f.name for f in report.functions}
        assert "main" in names
        assert "laplacian" in names  # hercules is interprocedural
        for summary in report.functions:
            assert 0.0 <= summary.weighted_sdc <= 1.0

    def test_hottest_sorted(self, report):
        for summary in report.functions:
            probabilities = [p for _i, p, _t in summary.hottest]
            assert probabilities == sorted(probabilities, reverse=True)

    def test_target_verdict(self, report):
        assert report.meets_target is (report.overall_sdc <= 0.10)

    def test_recommendation_nonempty(self, report):
        assert report.recommended_iids
        assert 0.0 < report.recommended_coverage <= 1.0

    def test_render_markdown(self, report):
        text = report.render()
        assert text.startswith("# Resilience report: hercules")
        assert "## Per-function breakdown" in text
        assert "## Protection recommendation" in text
        assert "laplacian" in text

    def test_no_target(self):
        module = cached_module("nw")
        profile, _ = cached_profile("nw")
        result = generate_report(module, profile, samples=200)
        assert result.meets_target is None
        assert "target" not in result.render().lower()


class TestWarmReport:
    def test_warm_report_recomputes_no_prediction(self, tmp_path,
                                                  monkeypatch):
        """A re-report on a warm store reads every per-instruction
        prediction from it, the unsampled ones included."""
        module = cached_module("sad")
        profile, _ = cached_profile("sad")
        computed = []
        compute_sdc = Trident._compute_sdc

        def counting(model, iid):
            computed.append(iid)
            return compute_sdc(model, iid)

        monkeypatch.setattr(Trident, "_compute_sdc", counting)
        reset_query_stores()
        try:
            configure_cache(tmp_path / "store")
            cold = generate_report(module, profile, samples=200).render()
            assert computed
            reset_query_stores()
            computed.clear()
            warm = generate_report(module, profile, samples=200).render()
        finally:
            configure_cache(None)
            reset_query_stores()
        assert computed == []
        assert warm == cold

    def test_warm_report_propagates_no_fault(self, tmp_path, monkeypatch):
        """The crash predictions are stored too: a warm re-report runs
        no fs propagation, for the sampled overall crash either."""
        module = cached_module("sad")
        profile, _ = cached_profile("sad")
        propagated = []
        propagate = ForwardPropagator._propagate

        def counting(propagator, origin):
            propagated.append(origin)
            return propagate(propagator, origin)

        monkeypatch.setattr(ForwardPropagator, "_propagate", counting)
        reset_query_stores()
        try:
            configure_cache(tmp_path / "store")
            cold = generate_report(module, profile, samples=200).render()
            assert propagated
            reset_query_stores()
            propagated.clear()
            warm = generate_report(module, profile, samples=200).render()
        finally:
            configure_cache(None)
            reset_query_stores()
        assert propagated == []
        assert warm == cold
