"""Fast-vs-exact simulator cross-validation (paper §7.1.1 methodology)."""

import pytest

from repro.core import xset_default
from repro.graph import erdos_renyi
from repro.patterns import PATTERNS, build_plan
from repro.sim import run_on_soc
from repro.sim.validation import cross_validate


def _config(kind: str):
    return xset_default(
        siu_kind=kind,
        segment_width=8 if kind != "merge" else 1,
        bitmap_width=8 if kind != "merge" else 0,
        name=f"cv-{kind}",
    )


@pytest.mark.parametrize("kind", ["order-aware", "sma", "merge"])
@pytest.mark.parametrize("pattern", ["3CF", "CYC"])
def test_analytic_matches_exact_pipelines(kind, pattern):
    """Total analytic issue cycles equal the element-level replay's."""
    g = erdos_renyi(40, 6.0, seed=7)
    cv = cross_validate(g, build_plan(PATTERNS[pattern]), _config(kind))
    assert cv.embeddings_match
    assert cv.relative_issue_error == pytest.approx(0.0, abs=1e-9)


def test_exact_executor_is_a_drop_in(medium_er):
    """The exact pipelines stream every operation of the workload, and the
    simulated run counts what the reference executor counts."""
    from repro.patterns import count_embeddings

    plan = build_plan(PATTERNS["3CF"])
    cv = cross_validate(medium_er, plan, _config("order-aware"))
    assert cv.exact_issue_cycles > 0
    assert cv.embeddings_match
    report = run_on_soc(medium_er, plan, _config("order-aware"))
    assert report.embeddings == count_embeddings(medium_er, plan).embeddings
    assert cv.analytic_comparisons == report.comparisons


def test_plain_csr_also_exact():
    g = erdos_renyi(30, 6.0, seed=9)
    cfg = xset_default(bitmap_width=0, name="cv-b0")
    cv = cross_validate(g, build_plan(PATTERNS["3CF"]), cfg)
    assert cv.relative_issue_error == pytest.approx(0.0, abs=1e-9)
