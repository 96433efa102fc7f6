"""Figure 9: Madeus migration time versus database size, heavy workload.

Shape checks (paper: 101 / 496 / 1365 / 3536 s for 0.8 / 3.1 / 6.2 /
12 GB): migration time grows *superlinearly* with database size — the
restore (inserts + attribute alters + index builds) is slower than the
dump, and the longer it takes the more syncsets pile up.
"""

from repro.experiments import dbsize


def test_fig09_migration_time_vs_size(benchmark, profile, publish):
    results = benchmark.pedantic(
        dbsize.run_figure9, kwargs={"profile": profile},
        rounds=1, iterations=1)
    publish("fig09_dbsize", dbsize.report_fig9(results, profile))
    times = [r.migration_time for r in results]
    sizes = [r.size_mb for r in results]
    assert all(t is not None for t in times)
    # monotone growth
    assert times == sorted(times)
    # superlinear: time ratio exceeds size ratio between the extreme
    # points (paper: 35x time for 15x size)
    size_ratio = sizes[-1] / sizes[0]
    time_ratio = times[-1] / times[0]
    assert time_ratio > size_ratio * 1.2
    # per-step growth factors echo the paper's (4.9, 2.75, 2.59)
    for earlier, later in zip(times, times[1:]):
        assert later / earlier > 1.8
    benchmark.extra_info["migration_s_by_size_gb"] = {
        round(s / 1000.0, 2): round(t, 1)
        for s, t in zip(sizes, times)}
