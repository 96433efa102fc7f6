"""Figures 7 and 8: response-time and throughput timelines during a
Madeus migration under heavy workload.

Shape checks (paper):

* response time *during* migration is only slightly above normal
  operation (the paper calls the overhead "quite small");
* throughput during migration stays close to normal;
* the run completes with a consistent switch-over;
* with checkpointing enabled, at least one checkpoint fires (the
  "whisker" the paper points out exceeds migration overhead).
"""

from repro.experiments import performance

_CACHE = {}


def _timeline(profile):
    if "result" not in _CACHE:
        _CACHE["result"] = performance.run_timeline(profile,
                                                    paper_ebs=700,
                                                    checkpoints=True)
    return _CACHE["result"]


def test_fig07_response_timeline(benchmark, profile, publish):
    result = benchmark.pedantic(_timeline, args=(profile,),
                                rounds=1, iterations=1)
    publish("fig07_response_timeline",
            performance.report_fig7(result, profile))
    assert result.report is not None
    assert result.report.consistent is True
    # migration overhead is small: during-migration mean RT within 2x
    # of the pre-migration mean (paper: "only slightly longer")
    assert result.rt_during < 2.0 * max(result.rt_before, 1e-9)
    benchmark.extra_info["rt_ms"] = {
        "before": round(result.rt_before * 1000, 1),
        "during": round(result.rt_during * 1000, 1),
        "after": round(result.rt_after * 1000, 1)}


def test_fig08_throughput_timeline(benchmark, profile, publish):
    result = benchmark.pedantic(_timeline, args=(profile,),
                                rounds=1, iterations=1)
    publish("fig08_throughput_timeline",
            performance.report_fig8(result, profile))
    # throughput during migration within 25% of normal processing
    assert result.tput_during > 0.75 * result.tput_before
    # the slave was warm at switch-over: post-migration throughput does
    # not collapse
    assert result.tput_after > 0.7 * result.tput_before
    # at least one checkpoint fired during the run
    assert result.checkpoints >= 1
    benchmark.extra_info["tput"] = {
        "before": round(result.tput_before, 1),
        "during": round(result.tput_during, 1),
        "after": round(result.tput_after, 1)}
