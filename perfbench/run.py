"""Benchmark of ``auglink analyze`` on seeded, generated braid closures.

Usage::

    python3 perfbench/run.py --workload {batch,batch-export,mixed-large}
                             --seed N --seconds S --trace {0,1} [--tiny]

Run from the root of a source checkout (``src/`` and ``tests/`` present).
The inputs are generated from ``--seed`` into a scratch directory under
``.perfbench_work/``, which is removed at the end.  The loop is closed: one
``auglink analyze`` process at a time, each started fresh, because every
user invocation pays for interpreter start and cold state.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run (see ``child.py``) instead.  Every report and export is
checked against the oracles in ``tests/oracle.py`` (see ``check.py``); a
mismatch makes the run incorrect and the exit status 1.  ``--tiny``
shrinks the inputs for the smoke test in ``test_smoke.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/auglink/cli.py", "tests/braid.py", "tests/oracle.py")

WORKLOADS = ("batch", "batch-export", "mixed-large")
SETUP_PROBES = 9
TRACED_LARGE_DIAGRAMS = 3

# Interpreter start, ``import auglink.cli`` and argument parsing: what an
# invocation costs before analysis starts.
SETUP_PROBE = (
    "import sys\n"
    "from auglink.cli import build_parser\n"
    "build_parser().parse_args(sys.argv[1:])\n"
)
# The same start-up with the standard library modules alone: it measures the
# host's speed and nothing a change to the package can move.
REFERENCE_PROBE = (
    "import argparse, dataclasses, fractions, json, math, pathlib, sys\n"
    "argparse.ArgumentParser().parse_known_args(sys.argv[1:])\n"
)
# The reference probe's median on the host the bounds were tuned on (see
# README.md, "Steadiness"); timings are reported at that host speed.
REFERENCE_S = 0.08


@dataclass
class Job:
    """One ``auglink analyze`` invocation the loop repeats."""

    size: str  # "L" or "2L"
    items: list  # workloads.InputFile, in argument order
    traced: bool = False
    walls: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    digest: str | None = None
    entries: list = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
    output_bytes: int = 0  # report array plus exported files
    spans: list = field(default_factory=list)  # one span list per traced call


class Incorrect(Exception):
    """The program's output disagreed with the oracles or with itself."""


class Bench:
    def __init__(self, workload: str, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.exporting = workload == "batch-export"
        self.flags = ["--json"]
        if workload != "mixed-large":
            self.flags.append("--attest-hyperbolic")
        if self.exporting:
            self.flags += ["--export-augmented", "exp"]
        # Bytecode is cached, as for an installed package, but inside the
        # work directory; the output is buffered as it is by default.
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")}
        self.env["PYTHONPYCACHEPREFIX"] = str(workdir / "pycache")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.setup_walls: list[float] = []
        self.reference_walls: list[float] = []

    def spawn(self, argv: list[str]) -> tuple[float, int]:
        """Run one process to completion: (wall s, exit code)."""
        with open(self.workdir / "stdout", "wb") as out, \
                open(self.workdir / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.run(argv, cwd=self.workdir, env=self.env,
                                  stdout=out, stderr=err, check=False)
            wall = time.perf_counter() - start
        return wall, proc.returncode

    def probe_setup(self, job: Job) -> None:
        """Time one start-up of ``auglink`` with ``job``'s arguments, and
        one of the reference probe."""
        args = ["analyze", *(i.path for i in job.items), *self.flags]
        for probe, walls in ((REFERENCE_PROBE, self.reference_walls),
                             (SETUP_PROBE, self.setup_walls)):
            wall, code = self.spawn([sys.executable, "-c", probe, *args])
            if code != 0:
                raise Incorrect(f"set-up probe exited {code}: {self._stderr()}")
            walls.append(wall)

    def _stderr(self) -> str:
        return (self.workdir / "stderr").read_text(errors="replace")[-2000:]

    def run(self, job: Job) -> None:
        """Invoke ``analyze`` once for ``job`` and check what it printed."""
        if self.exporting and job.digest is None:
            shutil.rmtree(self.workdir / "exp", ignore_errors=True)
        argv = [sys.executable, str(HERE / "child.py"), "child.json",
                *(["--trace"] if job.traced else []),
                "analyze", *(i.path for i in job.items), *self.flags]
        wall, code = self.spawn(argv)
        if code not in (0, 2):  # 2 means some file reported ok: false
            raise Incorrect(f"analyze exited {code}: {self._stderr()}")
        stdout = (self.workdir / "stdout").read_bytes()
        digest = hashlib.sha256(stdout).hexdigest()
        if job.digest is None:
            job.digest = digest
            job.entries = json.loads(stdout)
            job.output_bytes = len(stdout) + sum(
                p.stat().st_size for p in (self.workdir / "exp").glob("*"))
            self.check(job)
        elif digest != job.digest:
            raise Incorrect(f"{job.size} output changed between identical invocations")
        child = json.loads((self.workdir / "child.json").read_text())
        job.walls.append(wall)
        job.rss_mb.append(child["peak_rss_kb"] / 1024)
        if job.traced:
            job.spans.append(child["spans"])

    def check(self, job: Job) -> None:
        from check import check_entries

        job.mismatches = check_entries(
            job.entries, job.items, reduces=self.workload == "mixed-large",
            workdir=self.workdir, exporting=self.exporting)
        for why in job.mismatches[:20]:
            print(f"mismatch: {why}", file=sys.stderr)

    def loop(self, jobs: list[Job], seconds: float, probe: Job | None) -> int:
        """Run every job once, then keep cycling through them while the
        next one is expected to end within ``seconds``; return the number
        of invocations.

        With ``probe``, a set-up probe precedes each invocation, so that the
        set-up samples spread over the same time as the invocations do.
        """
        self.probe_setup(jobs[-1])  # compiles bytecode; not a sample
        self.setup_walls.clear()
        self.reference_walls.clear()
        start = time.perf_counter()
        runs = 0
        while True:
            job = jobs[runs % len(jobs)]
            if runs >= len(jobs) and \
                    time.perf_counter() - start + job.walls[-1] > seconds:
                break
            if probe is not None:
                self.probe_setup(probe)
            self.run(job)
            runs += 1
        while probe is not None and len(self.setup_walls) < SETUP_PROBES:
            self.probe_setup(probe)
        return runs


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer self times and counts of one traced invocation."""
    child_ns = [0] * len(spans)
    for name, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_s: dict[str, float] = {}
    count: dict[str, int] = {}
    errors: dict[str, int] = {}

    def add(table, key, value):
        table[key] = table.get(key, 0) + value

    for i, (name, _, start, end, _, error, counts) in enumerate(spans):
        add(self_s, name, (end - start - child_ns[i]) / 1e9)
        add(count, name, 1)
        layer = name.split(".")[0]
        add(errors, layer, error is not None)
        for key, value in (counts or {}).items():
            add(count, f"{name}.{key}", value)
    get = self_s.get
    return {
        "diagram.parse_s": get("diagram.parse", 0.0),
        "diagram.crossings": count.get("diagram.parse.crossings", 0),
        "diagram.errors": errors.get("diagram", 0),
        "twist.resolve_s": get("twist.resolve", 0.0),
        "twist.cancelled_crossings": count.get("twist.resolve.cancelled", 0),
        "twist.regions": count.get("twist.resolve.regions", 0),
        "twist.annotated_regions": count.get("twist.resolve.annotated", 0),
        "twist.errors": errors.get("twist", 0),
        "augment.augment_s": get("augment.augment", 0.0),
        "augment.export_s": get("augment.export", 0.0),
        "augment.export_crossings": count.get("augment.export.crossings", 0),
        "augment.errors": errors.get("augment", 0),
        "augment.reached": count.get("augment.augment", 0),
        "geometry.report_s": get("geometry.report", 0.0),
        "cli.file_self_s": get("cli.file", 0.0),
        "cli.render_s": get("cli.render", 0.0) + get("cli.analyze", 0.0),
        "cli.write_s": get("cli.write", 0.0),
    }


def file_ms(job_spans: list) -> list[float]:
    return [(end - start) / 1e6 for spans in job_spans
            for name, _, start, end, *_ in spans if name == "cli.file"]


def build_jobs(workload: str, workdir: Path, seed: int, tiny: bool,
               trace: bool) -> list[Job]:
    """Write the inputs and return the invocations to repeat.

    Untraced, the jobs alternate sizes L and 2L, so that each L job and the
    2L job after it form a pair for ``growth_x``.  For ``batch`` the 2L
    input is the whole corpus and L its first half.  Traced, each traced
    job is followed by the same job untraced, for the tracing overhead.
    """
    import workloads

    if workload == "mixed-large":
        pairs = workloads.write_large(workdir, seed, *((40, 2) if tiny else ()))
        if trace:
            return [Job("2L", [big], traced=t)
                    for _, big in pairs[:TRACED_LARGE_DIAGRAMS] for t in (True, False)]
        return [Job(size, [item]) for pair in pairs
                for size, item in zip(("L", "2L"), pair)]
    corpus = workloads.write_batch(workdir, seed, *((40,) if tiny else ()))
    if trace:
        return [Job("2L", corpus, traced=True), Job("2L", corpus)]
    return [Job("L", corpus[: len(corpus) // 2]), Job("2L", corpus)]


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
            workdir: Path) -> tuple[dict, dict, int, int]:
    """Return (metrics, details, attempted, failed)."""
    bench = Bench(workload, workdir)
    jobs = build_jobs(workload, workdir, seed, tiny, trace)
    big = [j for j in jobs if j.size == "2L"]
    runs = bench.loop(jobs, seconds, None if trace else big[0])

    items = list({i.path: i for j in jobs for i in j.items}.values())
    mismatches = sorted({m for job in jobs for m in job.mismatches})
    failed_paths = {e["file"] for job in jobs for e in job.entries if not e["ok"]}
    failed_paths |= {m.split(":", 1)[0] for m in mismatches}
    attempted = len(items)
    failed = len(failed_paths)

    outputs = hashlib.sha256()
    for job in jobs:
        if not job.traced:
            outputs.update(job.digest.encode())
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "machine": f"{platform.machine()} {platform.processor() or platform.platform()}",
        "nproc": len(os.sched_getaffinity(0)),
        "corpus": {
            "files": attempted,
            "letters": sum(i.letters for i in items),
            "invocation_files": {j.size: len(j.items) for j in jobs},
        },
        "invocations": runs,
        "json_sha256": outputs.hexdigest(),
        "failed_share": failed / attempted,
    }
    if mismatches:
        raise Incorrect(f"{len(mismatches)} reports disagree with the oracles")

    if trace:
        traced = [j for j in jobs if j.traced]
        plain = [j for j in jobs if not j.traced]
        if {j.digest for j in traced} != {j.digest for j in plain}:
            raise Incorrect("tracing changed the report bytes")
        per_call = [layer_metrics(s) for j in traced for s in j.spans]
        metrics = {key: statistics.median(m[key] for m in per_call)
                   for key in per_call[0]}
        samples = file_ms([s for j in traced for s in j.spans])
        metrics["cli.file_ms_p50"] = statistics.median(samples)
        metrics["cli.file_ms_p99"] = percentile(samples, 0.99)
        metrics["cli.files"] = len(samples)
        metrics["cli.output_bytes"] = statistics.median(j.output_bytes for j in traced)
        metrics["trace.overhead_share"] = (
            sum(statistics.median(j.walls) for j in traced)
            / sum(statistics.median(j.walls) for j in plain) - 1
        )
        return metrics, details, attempted, failed

    walls = {size: [w for j in jobs if j.size == size for w in j.walls]
             for size in ("L", "2L")}
    # Per diagram at the larger diagram size: the 2L jobs of mixed-large,
    # every job of the batch workloads (their diagrams are all alike).
    sized = big if workload == "mixed-large" else jobs
    per_file = [w / len(j.items) for j in sized for w in j.walls]
    # Sums over paired invocations: an L job and the 2L job after it.
    pairs = [(a, b) for small, large in zip(jobs[::2], jobs[1::2])
             for a, b in zip(small.walls, large.walls)]
    details["walls_s"] = walls
    details["setup_walls_s"] = bench.setup_walls
    details["reference_walls_s"] = bench.reference_walls
    # Wall times scaled to the reference host speed; the raw ones are above.
    speed = statistics.median(bench.reference_walls) / REFERENCE_S
    details["host_speed"] = speed
    details["diagram_s"] = {
        "median": statistics.median(per_file) / speed,
        "max": max(per_file) / speed, "n": len(per_file),
    }
    metrics = {
        "files_per_s": speed * sum(len(j.items) * len(j.walls) for j in jobs)
        / sum(walls["L"] + walls["2L"]),
        "diagram_s": sum(w for j in sized for w in j.walls)
        / sum(len(j.items) * len(j.walls) for j in sized) / speed,
        "growth_x": sum(b for _, b in pairs) / sum(a for a, _ in pairs),
        "setup_s": statistics.median(bench.setup_walls) / speed,
        "peak_rss_mb": statistics.median(r for j in big for r in j.rss_mb),
        "ok_share": 1 - failed / attempted,
    }
    return metrics, details, attempted, failed


UNITS = {
    "files_per_s": "1/s", "diagram_s": "s", "growth_x": "x", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_share": "share", "cli.file_ms_p50": "ms",
    "cli.file_ms_p99": "ms", "cli.output_bytes": "bytes",
    "trace.overhead_share": "share",
}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a source checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        metrics, details, attempted, failed = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), args.tiny,
            workdir)
    except Incorrect as exc:
        print(f"perfbench: incorrect output: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    print(json.dumps(details, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit(name)}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
