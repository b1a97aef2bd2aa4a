"""latticefronts benchmark: one workload per process, one closed-loop client.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Runs the seed's batches of CLI jobs through ``latticefronts.cli.run`` in
process, each job starting when the previous one finishes, checks every job
against its oracle, and prints the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a traced pass (``--trace 1``) as the last line, one JSON
object.  Workloads: certify (spectral layers), solve (collocation Newton and
dense kernel), simulate (RK4 lattice oracle and CSV artifacts).  The program
is imported from ``src/`` next to this directory; run from a checkout root.

Times are in seconds at the reference host speed: the host's speed swings
by up to 2x over seconds to minutes, so each untraced job's wall time is
divided by the speed index ``hostspeed.Sampler`` measures around and during
it (index 1.0 on the reference VM).  The raw wall times are printed and kept
in the run record.  The traced pass samples the speed only between jobs, so
its spans hold only the program; its layer times are raw.

A job fails when it raises out of ``cli.run``, exits with an unexpected code
or fails its oracle; ``failed`` counts every failure and ``ok_frac`` is the
share of jobs that passed.  ``correct`` is false only for failures outside
``jobs.KNOWN_DEFECTS``, the defects present when the benchmark was defined.
The run record (provenance, every job, failure reasons) and, when traced,
the spans are written to ``bench/out/``.
"""

import os
import sys
from time import perf_counter

T_START = perf_counter()
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_ENV:          # before numpy is first imported
    os.environ[_var] = str(BLAS_THREADS)

import argparse                 # noqa: E402
import contextlib               # noqa: E402
import importlib                # noqa: E402
import io                       # noqa: E402
import json                     # noqa: E402
import math                     # noqa: E402
import platform                 # noqa: E402
import resource                 # noqa: E402
import shutil                   # noqa: E402
import statistics               # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path        # noqa: E402

import hostspeed                # noqa: E402
import jobs                     # noqa: E402
import spans                    # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 3
# Stop starting batches past this many seconds of process time, so a much
# slower program still exits well inside the 180 s a run may take.
BATCH_START_LIMIT_S = 120.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(jobs.BATCH))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_program() -> float:
    """Import numpy, scipy and latticefronts from ROOT/src; returns seconds."""
    pkg_dir = ROOT / "src" / "latticefronts"
    if not (pkg_dir / "__init__.py").is_file():
        raise SystemExit(f"bench: no latticefronts sources at {pkg_dir}")
    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import numpy                # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    for layer in spans.LAYERS:
        mod = importlib.import_module(f"latticefronts.{layer}")
    elapsed = perf_counter() - t0
    if Path(mod.__file__).resolve().parent != pkg_dir.resolve():
        raise SystemExit(f"bench: imported latticefronts from {mod.__file__}, not {pkg_dir}")
    return elapsed


def git_sha():
    """HEAD of ROOT/.git, or None in an exported tree without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Client:
    """Closed-loop client: runs one job at a time and checks its output."""

    def __init__(self, workdir: Path, tracer=None):
        from latticefronts import cli
        self.cli = cli
        self.workdir = workdir
        self.tracer = tracer
        self.sampler = hostspeed.Sampler()
        self.count = 0

    def run_batch(self, batch, refs: dict) -> list[dict]:
        if self.tracer is not None:
            self.tracer.install()
        try:
            return [self.run(job, refs) for job in batch]
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()

    def run(self, job: jobs.Job, refs: dict) -> dict:
        config = json.loads(json.dumps(job.config))
        outdir = self.workdir / f"job{self.count:05d}"
        self.count += 1
        out, err, exc = io.StringIO(), io.StringIO(), None
        tr = self.tracer
        # no samples inside a traced job, so its spans hold only the program
        self.sampler.start(tick=tr is None)
        if tr is not None:
            tr.job = self.count
            span = tr.open("cli.run")
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run(job.command, config, outdir)
        except Exception as e:  # escaped cli.run: a failed job, not a harness crash
            code, exc = None, e
        if tr is not None:
            tr.close(span, raised=exc is not None)
            tr.job = None
        spent = self.sampler.stop()
        latency = perf_counter() - t0 - spent
        speed, edge_speed = self.sampler.speeds()
        size = sum(f.stat().st_size for f in outdir.rglob("*") if f.is_file())
        if exc is not None:
            reason = f"uncaught {type(exc).__name__}: {exc}"
        else:
            try:
                reason = jobs.check(job, code, outdir, refs)
            except (OSError, KeyError, ValueError, TypeError) as e:
                reason = f"unreadable output: {type(e).__name__}: {e}"
        shutil.rmtree(outdir, ignore_errors=True)
        return {"kind": job.kind, "command": job.command, "config": job.config,
                "latency_s": latency, "speed_index": speed, "ref_s": latency / speed,
                "edge_ref_s": latency / edge_speed, "exit": code, "ok": reason is None,
                "reason": reason,
                "known_defect": reason and jobs.known_defect(job.kind, reason),
                "artifact_bytes": size, "stderr": err.getvalue()[-500:]}


def run_batches(clients, batches, refs):
    """Every batch in order, once per client, batch by batch so that host
    speed drift falls alike on the untraced and the traced client; returns
    (job results, per-batch [wall at the reference speed, raw wall, wall at
    the edge-only speed index]) for each client."""
    out = [([], []) for _ in clients]
    for batch in batches:
        if out[0][1] and (perf_counter() - T_START + sum(w[-1][1] for _, w in out)
                          > BATCH_START_LIMIT_S):
            break
        for client, (results, walls) in zip(clients, out):
            done = client.run_batch(batch, refs)
            results.extend(done)
            walls.append([sum(r[k] for r in done) for k in ("ref_s", "latency_s", "edge_ref_s")])
    return out


def setup(workload: str, batches, client: Client):
    """Reference solves for the oracles plus one warm-up job, repeated;
    returns (refs, per-repeat seconds, per-repeat seconds at index 1)."""
    all_jobs = [job for batch in batches for job in batch]
    times, ref_times, refs = [], [], {}
    for _ in range(SETUP_REPEATS):
        client.sampler.start()
        t0 = perf_counter()
        refs = jobs.reference_values(all_jobs)
        elapsed = perf_counter() - t0 - client.sampler.stop()
        speed, _ = client.sampler.speeds()
        warm = client.run(jobs.warmup_job(workload), refs)
        times.append(elapsed + warm["latency_s"])
        ref_times.append(elapsed / speed + warm["ref_s"])
    return refs, times, ref_times


def tail(latencies):
    """(value, percentile, samples beyond) at the highest whole percentile
    with at least ten samples beyond it; the maximum when there are fewer
    than eleven samples."""
    xs = sorted(latencies)
    k = len(xs)
    if k <= 10:
        return xs[-1], 100, 0
    p = math.floor(100 * (k - 10) / k)
    rank = max(1, math.ceil(p * k / 100))
    return xs[rank - 1], p, k - rank


def summarize_failures(results):
    grouped = Counter((r["kind"], r["reason"], r["known_defect"])
                      for r in results if not r["ok"])
    return [{"kind": k, "reason": reason, "known_defect": known, "count": n}
            for (k, reason, known), n in sorted(grouped.items(), key=str)]


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_s = load_program()
    import numpy
    import scipy

    # a traced run splits its time between the untraced and the traced pass
    batches_n = max(1, round(args.seconds / (1 + args.trace)
                             / jobs.NOMINAL_BATCH_S[args.workload]))
    batches = jobs.make_batches(args.workload, args.seed, batches_n)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        clients = [Client(workdir)]
        if args.trace:
            clients.append(Client(workdir / "traced", spans.Tracer()))
        import_index = clients[0].sampler.index()
        refs, setup_times, setup_ref = setup(args.workload, batches, clients[0])
        passes = run_batches(clients, batches, refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    results, walls = passes[0]
    report, report_walls = passes[-1]      # the traced pass when tracing
    latencies = [r["ref_s"] for r in results]
    tail_value, tail_p, tail_beyond = tail(latencies)
    failed = sum(not r["ok"] for r in report)
    correct = all(r["ok"] or r["known_defect"] for r in report)
    fail_frac = sum(not r["ok"] for r in results) / len(results)
    values = {
        # host throughput drifts on a ~10 s scale, so the mean over the whole
        # run is steadier than the median of a few batches
        "wall_s": statistics.fmean(w[0] for w in walls),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
        "ok_frac": 1.0 - fail_frac,
        # the imports ran before the kernel could; the first samples stand for them
        "setup_s": import_s / import_index + statistics.median(setup_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {
        "provenance": {
            "git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            "blas_env": {v: os.environ[v] for v in BLAS_ENV},
            "machine": platform.machine(),
        },
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "batches": len(walls), "batches_planned": batches_n,
        "jobs_per_kind": dict(Counter(r["kind"] for r in report)),
        "end_to_end": values,
        "op_tail": {"percentile": tail_p, "samples": len(latencies),
                    "samples_beyond": tail_beyond},
        "fail_frac": fail_frac,
        "failures": summarize_failures(results),
        "raw_s": {"wall_s": statistics.fmean(w[1] for w in walls),
                  "op_p50_s": statistics.median(r["latency_s"] for r in results),
                  "setup_s": import_s + statistics.median(setup_times)},
        "speed_index": {"reference": hostspeed.REFERENCE, "nominal_s": hostspeed.NOMINAL_S,
                        "median": statistics.median(r["speed_index"] for r in results),
                        "period_s": hostspeed.PERIOD_S, "imports": import_index},
        "import_s": import_s, "setup_repeats_s": setup_times, "setup_repeats_ref_s": setup_ref,
        "batch_walls_ref_s": [w[0] for w in walls], "batch_walls_s": [w[1] for w in walls],
        "jobs": results,
    }
    metric_names = [m["name"] for m in spec["end_to_end"]]
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        tracer = clients[1].tracer
        layer = spans.layer_metrics(tracer.spans, names)
        job_s = sum(r["latency_s"] for r in report)
        self_s = sum(layer[f"{name}.self_s"] for name in spans.LAYERS)
        # self times partition each job span; a gap means lost spans
        correct = correct and abs(self_s - job_s) <= 1e-3 * job_s
        layer["cli.artifact_bytes"] = float(sum(r["artifact_bytes"] for r in report))
        # the traced pass samples the host speed only between jobs, so the
        # overhead compares both passes at that index
        layer["trace.wall_s"] = statistics.fmean(w[0] for w in report_walls)
        layer["trace.overhead_s"] = layer["trace.wall_s"] - statistics.fmean(w[2] for w in walls)
        layer["trace.job_s"] = job_s
        layer["trace.self_sum_s"] = self_s
        values = {name: layer[name] for name in names}
        record.update(per_layer=values, unlisted_layer_metrics=layer["_unlisted"],
                      traced_failures=summarize_failures(report), traced_jobs=report,
                      spans=len(tracer.spans))
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.json")
        metric_names = names
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")

    prov = record["provenance"]
    print(f"workload {args.workload} seed {args.seed}: {len(report)} jobs in "
          f"{record['batches']} batches, closed loop, 1 client; "
          f"python {prov['python']} numpy {prov['numpy']} scipy {prov['scipy']} "
          f"nproc {prov['nproc']} blas threads {BLAS_THREADS} sha {prov['git_sha']}")
    print("jobs per kind: " + ", ".join(f"{k} {n}" for k, n in record["jobs_per_kind"].items()))
    print(f"fail_frac {fail_frac:.4f}; op_tail_s is p{tail_p} of "
          f"{len(latencies)} jobs with {tail_beyond} beyond")
    for f in record["failures"]:
        tag = f"known defect: {f['known_defect']}" if f["known_defect"] else "UNEXPECTED"
        print(f"  failed x{f['count']} {f['kind']} [{tag}]: {f['reason']}")
    raw = record["raw_s"]
    print(f"raw wall times: wall_s {raw['wall_s']:.6g} s, op_p50_s {raw['op_p50_s']:.6g} s, "
          f"setup_s {raw['setup_s']:.6g} s; median speed index "
          f"{record['speed_index']['median']:.4g}")
    for name in metric_names:
        print(f"  {name} = {values[name]:.6g} {units[name]}")
    print(json.dumps({"correct": bool(correct), "attempted": len(report), "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": units[name]}
                                  for name in metric_names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
