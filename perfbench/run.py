"""Benchmark the mhaar command line, end to end or layer by layer.

    python3 perfbench/run.py --workload {synthesize,search,oracle} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports mhaar from ./src.  Each
command of a workload runs as a fresh `python -m mhaar` process, as users
run it, so no cache carries over from one command to the next.  Passes
over the workload's command list repeat while the next one still fits in
S seconds (at least one pass); every metric is the median over passes.

Times are scaled to a reference CPU speed (see SpeedProbe); the raw
times are printed beside them and reported per layer.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each pass
twice, plain and traced (perfbench/traced_cli.py), and reports the
per-layer metrics: the traced pass gives the spans, the plain one the
per-subcommand times and the tracing overhead.

Every command's outcome is checked (gate.py).  The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
import spans
import workloads

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 165      # the whole run, so it ends within 180 s
SETUP_RUNS = 7

PROBE_EVERY_S = 0.025
PROBE_LOOPS = 1500
# probe time at the reference speed: the fast state of a 2.1 GHz Xeon vCPU
REF_PROBE_S = 270e-6

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB")]
SUBCOMMANDS = ("synthesize", "verify", "search", "reverify", "oracle-aut")


def _sub_metric(sub: str) -> str:
    return f"{sub.replace('-', '_')}_s"


# per-layer metrics taken from the plain pass of a traced run
PLAIN_METRICS = ([(f"cmd.{_sub_metric(s)}", "s") for s in SUBCOMMANDS]
                 + [("cmd.candidates_per_s", "1/s"), ("raw.wall_s", "s"),
                    ("raw.cpu_s", "s"), ("probe.scale", "ratio"),
                    ("trace.overhead_s", "s"), ("trace.overhead_share", "ratio")])
PER_LAYER = PLAIN_METRICS + [(n, u) for n, u, _, _ in spans.LAYER_METRICS]


def _probe_work() -> int:
    # 400-bit integer operations, like the engine's bitset work; of the
    # loops tried, this one's time tracked the commands' times best
    b = (1 << 400) - 1
    s = 0
    for i in range(PROBE_LOOPS):
        s += ((b >> (i % 400)) & (b ^ i)).bit_count()
    return s


class SpeedProbe:
    """Samples how fast one CPU runs Python while commands run on it.

    On a shared virtual machine the same work can take 1.45 times longer
    when a neighbour is busy, in phases of seconds to minutes, and the
    slowdown hits CPU time as much as wall time.  A thread pinned to the
    CPU times a fixed loop every PROBE_EVERY_S (about 1% of the CPU).
    scale(t0, t1) is REF_PROBE_S over the median loop time in that
    interval, so time x scale is the time at the reference speed.
    """

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.samples: list[tuple[float, float]] = []   # (end, loop time)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        os.sched_setaffinity(threading.get_native_id(), {self.cpu})
        while not self._stop.wait(PROBE_EVERY_S):
            t0 = time.perf_counter()
            _probe_work()
            t1 = time.perf_counter()
            self.samples.append((t1, t1 - t0))

    def scale(self, t0: float, t1: float) -> float:
        samples = self.samples
        lo = bisect.bisect_left(samples, t0, key=lambda s: s[0])
        hi = bisect.bisect_right(samples, t1, key=lambda s: s[0])
        # a command shorter than the probe period takes the last samples
        window = samples[lo:hi] or samples[max(0, hi - 3):hi]
        if not window:
            return 1.0
        return REF_PROBE_S / statistics.median(d for _, d in window)

    def close(self) -> None:
        self._stop.set()
        self._thread.join()


@dataclass
class PassResult:
    wall: float = 0.0       # scaled to the reference speed
    cpu: float = 0.0
    raw_wall: float = 0.0   # as measured
    raw_cpu: float = 0.0
    rss_kb: int = 0
    scales: list = field(default_factory=list)
    by_sub: dict = field(default_factory=dict)
    examined: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    out_of_time: bool = False


class Bench:
    def __init__(self, root: Path, work: Path, deadline: float, cpu: int,
                 probes: dict[int, SpeedProbe]):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.cpu = cpu
        self.probes = probes
        env = dict(os.environ)
        env.pop("MHAAR_MAX_VERTICES", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["PYTHONHASHSEED"] = "0"
        env["TMPDIR"] = str(work)   # keep any temporary file inside the checkout
        self.env = env

    def spawn(self, argv: list[str], out: Path, all_cpus: bool = False):
        """Run argv to completion.

        Returns (exit code, wall s, user+sys s, max RSS KiB, speed scale).
        The child inherits this thread's CPU, or every CPU when all_cpus;
        then its scale is the mean over the CPUs.
        os.wait4 gives its resource use including the children it reaped
        (search pool workers).  A command still running at the deadline is
        killed with its process group.
        """
        timeout = max(0.1, self.deadline - time.monotonic())
        with open(out, "wb") as fo, open(out.with_suffix(".err"), "wb") as fe:
            if all_cpus:
                os.sched_setaffinity(0, set(self.probes))
            t0 = time.perf_counter()
            try:
                proc = subprocess.Popen(argv, stdout=fo, stderr=fe,
                                        stdin=subprocess.DEVNULL, env=self.env,
                                        cwd=self.root, start_new_session=True)
            finally:
                if all_cpus:
                    os.sched_setaffinity(0, {self.cpu})
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        used = self.probes.values() if all_cpus else [self.probes[self.cpu]]
        scale = statistics.mean(p.scale(t0, t1) for p in used)
        return (proc.returncode, t1 - t0, ru.ru_utime + ru.ru_stime, ru.ru_maxrss,
                scale)

    def setup_s(self) -> tuple[float, float]:
        """Median (scaled, raw) wall time of a fresh interpreter importing mhaar.cli."""
        argv = [sys.executable, "-c", "import mhaar.cli"]
        scaled, raw = [], []
        for k in range(SETUP_RUNS):
            rc, wall, _, _, scale = self.spawn(argv, self.work / f"setup{k}.out")
            if rc != 0:
                raise SystemExit(f"`import mhaar.cli` exited {rc}")
            scaled.append(wall * scale)
            raw.append(wall)
        return statistics.median(scaled), statistics.median(raw)

    def run_pass(self, cmds: list, d: Path, traced: bool) -> PassResult:
        d.mkdir(parents=True)
        res = PassResult()
        for i, cmd in enumerate(cmds):
            res.attempted += 1
            if time.monotonic() >= self.deadline:
                res.out_of_time = True
                res.failures.append(f"{' '.join(cmd.argv)}: not run, out of time")
                continue
            span_file = d / f"{i}.spans.json"
            prefix = ([str(HERE / "traced_cli.py"), str(span_file), str(i)]
                      if traced else ["-m", "mhaar"])
            out = d / f"{i}.out"
            # a pool command gets every CPU, so its workers can run in parallel
            rc, wall, cpu, rss, scale = self.spawn(
                [sys.executable, *prefix, *cmd.argv], out,
                all_cpus="--workers" in cmd.argv)
            stdout = out.read_text(encoding="utf-8", errors="replace")
            why = gate.check(cmd, rc, stdout)
            if why is not None:
                res.failures.append(f"{' '.join(cmd.argv)}: {why}")
            if cmd.save_stdout is not None:
                cmd.save_stdout.write_text(stdout, encoding="utf-8")
            res.wall += wall * scale
            res.cpu += cpu * scale
            res.raw_wall += wall
            res.raw_cpu += cpu
            res.scales.append(scale)
            res.rss_kb = max(res.rss_kb, rss)
            sub = cmd.argv[0]
            res.by_sub[sub] = res.by_sub.get(sub, 0.0) + wall * scale
            found = re.search(r"examined: (\d+)", stdout)
            if sub == "search" and found:
                res.examined += int(found.group(1))
            if traced and span_file.exists():
                offset = len(res.spans)
                for s in json.loads(span_file.read_text(encoding="utf-8")):
                    if s[spans.PARENT] is not None:
                        s[spans.PARENT] += offset
                    s[spans.START] *= scale
                    s[spans.END] *= scale
                    res.spans.append(s)
        return res


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def repeat(one_pass, seconds: float) -> list:
    """Run passes while the next one, at the median pass time, still fits."""
    results, durations = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        results.append(one_pass(len(results)))
        durations.append(time.monotonic() - t0)
        if (results[-1][1] or time.monotonic() - start
                + statistics.median(durations) > seconds):
            return [r for r, _ in results]


def end_to_end_pass(r: PassResult) -> dict:
    return {"wall_s": r.wall, "cpu_s": r.cpu, "peak_rss_mb": r.rss_kb / 1024}


def layer_pass(plain: PassResult, traced: PassResult) -> dict:
    m = {f"cmd.{_sub_metric(s)}": plain.by_sub.get(s, 0.0) for s in SUBCOMMANDS}
    m["cmd.candidates_per_s"] = (plain.examined / m["cmd.search_s"]
                                 if m["cmd.search_s"] else 0.0)
    m["raw.wall_s"] = plain.raw_wall
    m["raw.cpu_s"] = plain.raw_cpu
    m["probe.scale"] = statistics.median(plain.scales)
    m["trace.overhead_s"] = traced.wall - plain.wall
    m["trace.overhead_share"] = (traced.wall - plain.wall) / plain.wall
    m.update(spans.layer_metrics(traced.spans))
    return m


def medians(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mhaar" / "cli.py").is_file():
        print(f"no mhaar sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    probes = {c: SpeedProbe(c) for c in os.sched_getaffinity(0)}
    cpu = min(probes)
    # commands inherit this thread's CPU
    os.sched_setaffinity(0, {cpu})
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    passes: list[PassResult] = []
    try:
        bench = Bench(root, work, deadline, cpu, probes)
        inputs = work / "inputs"
        inputs.mkdir()
        make_cmds = workloads.make_pass_factory(args.workload, args.seed, inputs)

        if args.trace:
            def one_pass(k):
                # alternate which runs first, so warm-up favours neither
                order = (False, True) if k % 2 == 0 else (True, False)
                runs = {t: bench.run_pass(make_cmds(work / f"{k}{t:d}"),
                                          work / f"{k}{t:d}", t) for t in order}
                plain, traced = runs[False], runs[True]
                passes.extend((plain, traced))
                return (layer_pass(plain, traced),
                        plain.out_of_time or traced.out_of_time)
            names = PER_LAYER
        else:
            setup, raw_setup = bench.setup_s()

            def one_pass(k):
                r = bench.run_pass(make_cmds(work / f"p{k}"), work / f"p{k}", False)
                passes.append(r)
                return dict(end_to_end_pass(r), setup_s=setup), r.out_of_time
            names = END_TO_END
        values = medians(repeat(one_pass, args.seconds))
    finally:
        for probe in probes.values():
            probe.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted = sum(r.attempted for r in passes)
    failures = [f for r in passes for f in r.failures]
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
          f"{attempted} commands, failed_ratio {len(failures) / attempted:.4f}")
    for f in failures[:20]:
        print(f"FAILED {f}")
    if not args.trace:
        for k, r in enumerate(passes):
            print(f"  pass {k}: wall_s {r.wall:.4f} (raw {r.raw_wall:.4f}), "
                  f"cpu_s {r.cpu:.4f} (raw {r.raw_cpu:.4f}), "
                  f"median scale {statistics.median(r.scales):.3f}")
        print(f"  setup_s raw {raw_setup:.4f}")
        for s in SUBCOMMANDS:
            if s in passes[0].by_sub:
                v = statistics.median(r.by_sub[s] for r in passes)
                print(f"  {_sub_metric(s):40s} {v:14.6g} s")
        if "search" in passes[0].by_sub:
            rate = statistics.median(r.examined / r.by_sub["search"] for r in passes)
            print(f"  {'candidates_per_s':40s} {rate:14.6g} 1/s")
    for name, unit in names:
        print(f"  {name:40s} {values[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
