"""What the benchmark's tracer (perfbench/spans.py, perfbench/perlayer.py)
needs from the package, checked by installing it in process.

The tracer wraps public functions by module attribute and reads what some of
them are given or return, so these names and shapes are part of the
package's contract: `nnet.Batch` and `nnet.Network` are classes with a
`__post_init__`; `pipeline.build_eps_approx` is public, runs once per source
task and returns `(network, record)` with `.reached_target` and
`.epochs_used`; `fisher.empirical_fisher_diag` takes `(net, batch)`
positionally.  A traced `rank` run that breaks one of them still exits 0,
but its health check reads no epsilon records.
"""

import os

import numpy as np

from taskaffinity import cli, fisher, matching, nnet, pipeline, tasks, theorem

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def test_tracer_health_check_sees_every_source_task(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import perlayer
    import spans

    tracer = spans.Tracer()
    tracer.install({"cli": cli, "pipeline": pipeline, "nnet": nnet, "fisher": fisher,
                    "matching": matching, "tasks": tasks, "theorem": theorem})
    try:
        health = perlayer.health_check(tracer, str(tmp_path))
    finally:
        tracer.uninstall()
    assert health["errors"] == [], health["message"]  # 191 of 200 targets reached

    a = tracer.arrays()
    mine = a["result"] == perlayer.HEALTH_ID

    def span_ids(name):
        return np.flatnonzero(mine & (a["name_id"] == tracer.name_ids[name]))

    mtas = span_ids("pipeline.mtas")
    assert mtas.size == perlayer.HEALTH_TASKS
    assert span_ids("pipeline.build_eps_approx").size == mtas.size
    fisher_parents = a["parent"][span_ids("fisher.empirical_fisher_diag")]
    assert set(fisher_parents.tolist()) == set(mtas.tolist())
    for counter in spans.COUNTED_CLASSES:
        assert tracer.counters.get((counter, perlayer.HEALTH_ID), 0) > 0
    assert nnet.Batch.__post_init__.__qualname__ == "Batch.__post_init__"  # uninstalled
