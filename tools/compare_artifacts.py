"""Run the benchmark's job lists through the CLI and compare two such runs.

    python tools/compare_artifacts.py run <dir>
    python tools/compare_artifacts.py diff <a> <b>

``run`` takes the jobs of ``bench/jobs.make_batches(workload, seed, 2)`` for
the workloads certify, solve and simulate and the seeds 501-503 (138 jobs),
runs each through ``latticefronts.cli.run`` with one BLAS thread, and keeps,
under ``<dir>/<workload>-<seed>-<index>-<kind>/``, the job's artifacts in
``out/`` and its stdout, stderr and exit code.  The program and the job lists
are those of the checkout this file sits in.

``diff`` lists, per job kind, the jobs whose exit code, stdout, stderr or
artifacts differ between two runs, then the largest absolute difference of
each numeric field: a JSON key path (list indices dropped), a CSV column or a
whole .npy array, prefixed by the artifact's name.
It exits 1 when any job differs and 0 otherwise.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"       # before numpy is first imported

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("certify", "solve", "simulate")
SEEDS = (501, 502, 503)
BATCHES = 2


def run(outdir: Path) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import jobs
    from latticefronts import cli

    for workload in WORKLOADS:
        for seed in SEEDS:
            batches = jobs.make_batches(workload, seed, BATCHES)
            for i, job in enumerate(job for batch in batches for job in batch):
                where = outdir / f"{workload}-{seed}-{i:03d}-{job.kind}"
                out, err = io.StringIO(), io.StringIO()
                config = json.loads(json.dumps(job.config))
                where.mkdir(parents=True)
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run(job.command, config, where / "out")
                (where / "stdout.txt").write_text(out.getvalue())
                (where / "stderr.txt").write_text(err.getvalue())
                (where / "exit.txt").write_text(f"{code}\n")
            print(f"{workload} seed {seed}: {i + 1} jobs", flush=True)


def _files(job: Path) -> dict[str, bytes]:
    return {str(p.relative_to(job)): p.read_bytes()
            for p in sorted(job.rglob("*")) if p.is_file()}


def _leaves(obj, path=""):
    """(key path, value) of every leaf of a JSON document, list indices dropped."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(obj, list):
        for v in obj:
            yield from _leaves(v, path)
    else:
        yield path, obj


def _csv_leaves(text: str):
    rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    for row in rows[1:]:
        for name, cell in zip(rows[0], row):
            try:
                yield name, float(cell)
            except ValueError:
                yield name, cell


def _fields(name: str, a: bytes, b: bytes, worst: dict) -> None:
    """Fold the field-wise differences of one artifact into worst."""
    if name.endswith(".npy"):
        xa, xb = np.load(io.BytesIO(a)), np.load(io.BytesIO(b))
        if xa.shape != xb.shape:
            worst[name] = "layout differs"
        elif not isinstance(worst.get(name), str):
            worst[name] = max(worst.get(name, 0.0), float(np.max(np.abs(xa - xb))))
        return
    if name.endswith(".json"):
        la, lb = list(_leaves(json.loads(a))), list(_leaves(json.loads(b)))
    elif name.endswith(".csv"):
        la, lb = list(_csv_leaves(a.decode())), list(_csv_leaves(b.decode()))
    else:
        worst[name] = "differs"
        return
    if [k for k, _ in la] != [k for k, _ in lb]:
        worst[name] = "layout differs"
        return
    for (key, x), (_, y) in zip(la, lb):
        key = f"{name}:{key}"
        if x == y:
            continue
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (x, y))
        if not numeric:
            worst[key] = "differs"
        elif worst.get(key) != "differs":
            worst[key] = max(worst.get(key, 0.0), abs(x - y))


def diff(a: Path, b: Path) -> bool:
    names = sorted({p.name for d in (a, b) for p in d.iterdir() if p.is_dir()})
    by_kind = defaultdict(lambda: [0, []])
    worst: dict[str, float | str] = {}
    exits = 0
    for name in names:
        kind = name.split("-", 3)[3]
        by_kind[kind][0] += 1
        fa, fb = _files(a / name), _files(b / name)
        if fa == fb:
            continue
        by_kind[kind][1].append(name)
        exits += fa.get("exit.txt") != fb.get("exit.txt")
        for f in sorted(set(fa) | set(fb)):
            if f not in fa or f not in fb:
                worst[f.removeprefix("out/")] = "only in one run"
            elif fa[f] != fb[f]:
                _fields(f.removeprefix("out/"), fa[f], fb[f], worst)
    print(f"{len(names)} jobs; exit codes differ on {exits}")
    for kind, (total, differ) in sorted(by_kind.items()):
        print(f"{kind}: {len(differ)} of {total} differ"
              + "".join(f"\n  {n}" for n in differ))
    if worst:
        print("largest absolute difference per field:")
        for key, v in sorted(worst.items()):
            print(f"  {key}  {v if isinstance(v, str) else format(v, '.3g')}")
    return any(differ for _, differ in by_kind.values())


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "run":
        run(Path(argv[1]))
    elif len(argv) == 3 and argv[0] == "diff":
        return int(diff(Path(argv[1]), Path(argv[2])))
    else:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
