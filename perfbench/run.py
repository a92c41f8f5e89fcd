"""hypokit benchmark: run the CLI as a researcher does and check every answer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is a closed loop with one client: one `hypokit` command at a time,
each started only after the previous one exited, from this single process.
There is no queue, so the time a command waits reduces to cpu_s against
solve_s; no queue metric is reported.  Every command gets generated input
files (see workloads.py) and every answer is checked by oracles.py, which
shares no code with hypokit.

--trace 0 reports the end-to-end metrics: passes over the workload's
commands are repeated until the next pass would end after --seconds (at
least one pass), and medians over passes are reported.  --trace 1 makes
one untraced pass, one pass under tracer.py and one untraced pass with the
BLAS thread variables set to 1, and reports the per-layer metrics.

Results records (with the environment block) and spans are written under
.perfbench_work/results/ in the checkout.  The last line of standard output
is the JSON summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import oracles
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Cleared in every child so the program's own thread default is measured.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "HYPOKIT_THREADS")
SETUP_REPEATS = 7

END_TO_END = {
    "solve_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {"cli.import_s": "s", "cli.main.self_s": "s", "cli.output_bytes": "bytes"}
    for mod, names in tracer.LAYERS.items():
        for name in names:
            units[f"{mod}.{name}.calls"] = "count"
            units[f"{mod}.{name}.self_s"] = "s"
    units.update({
        "operator_core.matrix_exponential.n3_sum": "count",
        "operator_core.matrix_exponential.dup_ratio": "ratio",
        "hc_index.index_correct_ratio": "ratio",
        "staircase.index_correct_ratio": "ratio",
        "staircase.warnings": "count",
        "decay.propagator_norm_curve.points": "count",
        "lorentz.modal_generator.dup_ratio": "ratio",
        "env.blas_threads": "count",
        "single_thread.solve_s": "s",
        "trace.overhead_frac": "ratio",
        "check.max_rel_err": "ratio",
    })
    return units


def child_env(threads: int | None = None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    if threads is not None:
        for var in THREAD_VARS[:3]:
            env[var] = str(threads)
    return env


@dataclass
class Sample:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(argv: list[str], env: dict[str, str], log: Path) -> Sample:
    """Run a child to completion; wall time from spawn to exit, CPU and RSS from its rusage."""
    with log.open("wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    # wait4 reaped the child; record its status so Popen does not wait for it again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


@dataclass
class PassResult:
    samples: list[Sample] = field(default_factory=list)
    verdicts: list[oracles.Verdict] = field(default_factory=list)
    output_bytes: int = 0
    traces: list[dict] = field(default_factory=list)

    @property
    def solve_s(self) -> float:
        return sum(s.wall_s for s in self.samples)

    @property
    def cpu_s(self) -> float:
        return sum(s.cpu_s for s in self.samples)

    @property
    def peak_rss_mb(self) -> float:
        return max(s.rss_mb for s in self.samples)

    @property
    def failed(self) -> int:
        return sum(not v.ok for v in self.verdicts)


def run_pass(cmds: list[workloads.Command], env: dict[str, str], rundir: Path,
             traced: bool = False) -> PassResult:
    res = PassResult()
    for i, cmd in enumerate(cmds):
        for path in cmd.outputs:
            Path(path).unlink(missing_ok=True)
        spans = rundir / f"spans{i}.json"
        if traced:
            spans.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), str(i), "--", *cmd.argv]
        else:
            argv = [sys.executable, "-m", "hypokit.cli", *cmd.argv]
        sample = spawn(argv, env, rundir / f"cmd{i}.log")
        res.samples.append(sample)
        res.verdicts.append(oracles.check(cmd.oracle, sample.returncode, cmd.outputs, cmd.expect))
        res.output_bytes += sum(Path(p).stat().st_size for p in cmd.outputs if Path(p).is_file())
        if traced:
            doc = json.loads(spans.read_text()) if spans.is_file() else {"spans": [], "restored": False}
            doc["argv"] = cmd.argv
            res.traces.append(doc)
    return res


PROBE = """
import ctypes, glob, json, os, platform, sys
import {modules}
import hypokit, numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except (TypeError, KeyError):
    blas = {{}}
threads = 0
for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
    get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
    if get is not None:
        get.restype = ctypes.c_int
        threads = get()
print(json.dumps({{
    "hypokit_version": hypokit.__version__,
    "hypokit_file": hypokit.__file__,
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas_name": blas.get("name"),
    "blas_version": blas.get("version"),
    "blas_threads": threads,
}}))
"""


def environment(workload: str, env: dict[str, str], rundir: Path) -> dict:
    """Versions, BLAS and the thread count a child sees; also warms the import caches."""
    log = rundir / "probe.log"
    code = PROBE.format(modules=", ".join(workloads.MODULES[workload]))
    sample = spawn([sys.executable, "-c", code], env, log)
    if sample.returncode != 0:
        raise RuntimeError(f"environment probe failed:\n{log.read_text()}")
    info = json.loads(log.read_text().strip().splitlines()[-1])
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "hypokit").glob("*.py")):
        digest.update(path.read_bytes())
    info.update({"git_commit": commit, "source_sha256": digest.hexdigest(),
                 "nproc": os.cpu_count(),
                 "thread_vars_cleared": list(THREAD_VARS)})
    return info


def setup_time(workload: str, env: dict[str, str], rundir: Path) -> float:
    """Median seconds for a fresh interpreter to import the workload's hypokit modules and exit."""
    code = "import " + ", ".join(workloads.MODULES[workload])
    walls = []
    for _ in range(SETUP_REPEATS):
        sample = spawn([sys.executable, "-c", code], env, rundir / "setup.log")
        if sample.returncode != 0:
            raise RuntimeError(f"importing hypokit failed:\n{(rundir / 'setup.log').read_text()}")
        walls.append(sample.wall_s)
    return statistics.median(walls)


def layer_metrics(traced: PassResult, untraced: PassResult, single: PassResult,
                  env_info: dict) -> dict[str, float]:
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    counters: Counter = Counter()
    for doc in traced.traces:
        spans = doc["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - covered[i]
        counters.update(doc.get("counters", {}))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    verdicts = traced.verdicts
    m = {
        "cli.import_s": statistics.median(d.get("import_s", 0.0) for d in traced.traces),
        "cli.main.self_s": self_s["cli.main"],
        "cli.output_bytes": traced.output_bytes,
    }
    for mod, names in tracer.LAYERS.items():
        for name in names:
            m[f"{mod}.{name}.calls"] = calls[f"{mod}.{name}"]
            m[f"{mod}.{name}.self_s"] = self_s[f"{mod}.{name}"]
    expm, modal = "operator_core.matrix_exponential", "lorentz.modal_generator"
    m.update({
        f"{expm}.n3_sum": counters[f"{expm}.n3_sum"],
        f"{expm}.dup_ratio": ratio(counters[f"{expm}.dups"], calls[expm]),
        "hc_index.index_correct_ratio": ratio(sum(v.methods_right for v in verdicts),
                                              sum(v.methods_total for v in verdicts)),
        "staircase.index_correct_ratio": ratio(sum(v.staircase_right for v in verdicts),
                                               sum(v.staircase_total for v in verdicts)),
        "staircase.warnings": sum(v.warnings for v in verdicts),
        "decay.propagator_norm_curve.points": counters["decay.propagator_norm_curve.points"],
        f"{modal}.dup_ratio": ratio(counters[f"{modal}.dups"], calls[modal]),
        "env.blas_threads": env_info["blas_threads"],
        "single_thread.solve_s": single.solve_s,
        "trace.overhead_frac": traced.solve_s / untraced.solve_s - 1.0,
        "check.max_rel_err": max(v.max_rel_err for p in (traced, untraced, single)
                                 for v in p.verdicts),
    })
    return m


def _report_pass(label: str, cmds: list[workloads.Command], res: PassResult, rundir: Path) -> None:
    print(f"{label}: solve {res.solve_s:.4f} s, cpu {res.cpu_s:.4f} s, "
          f"peak rss {res.peak_rss_mb:.1f} MB, {res.failed}/{len(cmds)} failed")
    for cmd, s, v in zip(cmds, res.samples, res.verdicts):
        shown = " ".join(a.replace(str(rundir) + os.sep, "") for a in cmd.argv)
        print(f"  {'ok  ' if v.ok else 'FAIL'} {s.wall_s:8.3f} s  cpu {s.cpu_s:8.3f} s  "
              f"rc {s.returncode}  {shown}")
        for problem in v.problems[:6]:
            print(f"       - {problem}")


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """Run one measurement and return the summary printed as the last line."""
    if not (SRC / "hypokit" / "cli.py").is_file():
        raise FileNotFoundError(f"hypokit sources not found under {SRC}")
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    rundir = WORK / "runs" / tag
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    resdir = WORK / "results"
    resdir.mkdir(parents=True, exist_ok=True)
    try:
        cmds = workloads.build(workload, seed, rundir, scale)
        env = child_env()
        env_info = environment(workload, env, rundir)
        if not env_info["hypokit_file"].startswith(str(SRC)):
            raise RuntimeError(f"children import hypokit from {env_info['hypokit_file']}, not {SRC}")
        if trace:
            untraced = run_pass(cmds, env, rundir)
            traced = run_pass(cmds, env, rundir, traced=True)
            single = run_pass(cmds, child_env(threads=1), rundir)
            passes = {"untraced": [untraced], "traced": [traced], "single_thread": [single]}
            metrics = layer_metrics(traced, untraced, single, env_info)
            units = per_layer_units()
            restored = all(doc.get("restored") for doc in traced.traces)
            (resdir / f"{tag}.spans.json").write_text(json.dumps(traced.traces))
        else:
            setup_s = setup_time(workload, env, rundir)
            runs: list[PassResult] = []
            start = time.perf_counter()
            while True:
                runs.append(run_pass(cmds, env, rundir))
                elapsed = time.perf_counter() - start
                if elapsed * (len(runs) + 1) / len(runs) > seconds:
                    break
            passes = {"default_threads": runs}
            attempted = len(cmds) * len(runs)
            metrics = {
                "solve_s": statistics.median(p.solve_s for p in runs),
                "cpu_s": statistics.median(p.cpu_s for p in runs),
                "setup_s": setup_s,
                "peak_rss_mb": statistics.median(p.peak_rss_mb for p in runs),
                "ok_frac": (attempted - sum(p.failed for p in runs)) / attempted,
            }
            units = END_TO_END
            restored = True
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    all_passes = [p for group in passes.values() for p in group]
    attempted = sum(len(p.samples) for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    for label, group in passes.items():
        for i, p in enumerate(group):
            _report_pass(f"{label} pass {i + 1}", cmds, p, rundir)
    print(f"env {json.dumps(env_info, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"fail_frac = {failed}/{attempted} = {failed / attempted!r}")
    if not trace:
        print(f"cpu_s / solve_s = {metrics['cpu_s'] / metrics['solve_s']!r} "
              "(one client, no queue: this is the only waiting the loop has)")
    if not restored:
        print("FAIL: a traced function was not restored after the command")

    summary = {
        "correct": failed == 0 and restored,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "scale": scale, "env": env_info, **summary,
        "passes": {
            label: [
                {"solve_s": p.solve_s, "cpu_s": p.cpu_s, "peak_rss_mb": p.peak_rss_mb,
                 "commands": [
                     {"argv": c.argv, "returncode": s.returncode, "wall_s": s.wall_s,
                      "cpu_s": s.cpu_s, "rss_mb": s.rss_mb, "problems": v.problems}
                     for c, s, v in zip(cmds, p.samples, p.verdicts)]}
                for p in group]
            for label, group in passes.items()
        },
    }
    (resdir / f"{tag}.json").write_text(json.dumps(record, indent=1))
    return summary


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
