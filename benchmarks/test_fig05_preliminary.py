"""Figure 5: response time vs EBs and the light/medium/heavy banding.

Shape checks (paper):

* response time grows monotonically (after noise) with EBs;
* 100-300 EBs band light, 400-600 medium, 700-1000 heavy under the
  profile-scaled 2-second rule;
* throughput saturates past the knee.
"""

import pytest

from repro.experiments import preliminary

EB_SWEEP = (100, 200, 300, 400, 500, 600, 700, 800, 900, 1000)


@pytest.fixture(scope="module")
def points(profile):
    """One sweep, read by both tests."""
    return preliminary.run_preliminary(profile=profile,
                                       eb_counts=EB_SWEEP)


def test_fig05_preliminary_sweep(points, profile, publish):
    publish("fig05_preliminary", preliminary.report(points, profile))

    by_ebs = {p.paper_ebs: p for p in points}
    # monotone-ish growth: the heavy end is far above the light end
    assert by_ebs[1000].mean_response_time > \
        10 * by_ebs[100].mean_response_time
    # throughput saturates: 1000 EBs does not beat 700 EBs by much
    assert by_ebs[1000].throughput <= by_ebs[700].throughput * 1.15


@pytest.mark.xfail(
    strict=True,
    reason="Network.coalesce_hops (on by default since df619da) reorders "
           "same-instant arrivals: 700 EBs reads 282 ms / medium where "
           "the paper's band, and this model with it off, is 307 ms / "
           "heavy.  Repairing it moves benchmarks/perf/frozen.json, so "
           "it needs a frozen.json re-baseline (ROADMAP direction 5).")
def test_fig05_bands_match_the_paper(points):
    # banding matches the paper's reading of Figure 5
    matches = preliminary.bands_match(points)
    mismatched = [ebs for ebs, ok in matches.items() if not ok]
    assert len(mismatched) <= 1, (
        "band mismatches vs paper: %r" % mismatched)
