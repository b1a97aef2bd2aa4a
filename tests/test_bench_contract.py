"""The benchmark's traced pass holds on the program: one batch per workload
runs through ``cli.run`` under the bench's tracer, as its traced client runs
them, and every job passes its oracle, every span maps to a listed metric and
the layer self times add up to the job time.

The tracer reads the program's calls by name and position (``integrate``'s
arguments, ``iterate``'s history, a branch's steps), so a refactor that keeps
every result can still break the traced pass; the untraced tests do not see
that.  Nothing is written under ``bench/``.
"""

import json
import sys
from pathlib import Path

import pytest

from latticefronts import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
LAYER_NAMES = [m["name"] for m in SPEC["per_layer"]]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_batch_passes_and_its_spans_add_up(workload, tmp_path, capsys):
    batch = jobs.make_batches(workload, 1, 1)[0]
    refs = jobs.reference_values(batch)
    tracer = spans.Tracer()
    reasons = []
    tracer.install()
    try:
        for i, job in enumerate(batch):
            outdir = tmp_path / f"job{i}"
            tracer.job = i
            root = tracer.open("cli.run")
            try:
                code = cli.run(job.command, json.loads(json.dumps(job.config)), outdir)
            except Exception as exc:      # escaped cli.run: a failed job
                tracer.close(root, raised=True)
                reasons.append((job.kind, f"uncaught {type(exc).__name__}: {exc}"))
                continue
            tracer.close(root)
            reasons.append((job.kind, jobs.check(job, code, outdir, refs)))
    finally:
        tracer.uninstall()
        tracer.job = None
    capsys.readouterr()

    unexpected = [(kind, reason) for kind, reason in reasons
                  if reason is not None and not jobs.known_defect(kind, reason)]
    assert not unexpected
    metrics = spans.layer_metrics(tracer.spans, LAYER_NAMES)
    assert metrics["_unlisted"] == []
    job_s = sum(s[2] - s[1] for s in tracer.spans if s[0] == "cli.run")
    self_s = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert self_s == pytest.approx(job_s, rel=1e-9)
