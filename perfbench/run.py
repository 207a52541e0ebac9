#!/usr/bin/env python3
"""perfbench: the end-to-end benchmark of the pinpoint CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the CLI and the helper program pbtool from source (CMake, one build
type, into $CARGO_TARGET_DIR or .bench_build), generates seeded MiniC
subjects, and drives the CLI in a closed loop: one client, one child process
at a time, for S seconds. Every analysis is checked against the generator's
ground truth. With --trace 0 it prints the end-to-end metrics; with
--trace 1 it instead runs the traced in-process helper (pbtool trace) next
to untraced CLI runs and prints per-layer metrics. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(HERE, "..", "src")
CHECKERS = "uaf,df,taint-path,taint-data,null-deref"
SETUP_REPEATS = 5
ANALYSIS_TIMEOUT_S = 60
# Seconds `pbtool calibrate` takes at the reference host speed. Timed
# metrics are scaled to that speed (see Bench.timed).
CALIBRATION_REF_S = 0.1

# Per workload: subject size and count, and the CLI flags (which the traced
# run mirrors). Every workload runs the five checkers on the same subject mix.
WORKLOADS = {
    "sparse_ci": {"loc": 80000, "subjects": 2, "jobs": 1, "demand": True,
                  "warm_edit": False},
    "exhaustive": {"loc": 10000, "subjects": 6, "jobs": 2, "demand": False,
                   "warm_edit": False},
    "warm_edit": {"loc": 80000, "subjects": 2, "jobs": 1, "demand": True,
                  "warm_edit": True},
}

END_TO_END_UNITS = {
    "kloc_per_s": "KLoC/s",
    "analysis_s_p50": "s",
    "cpu_s_p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "frontend.parse_s": "s",
    "frontend.kloc_per_s": "KLoC/s",
    "ir.ssa_s": "s",
    "demand.prepass_s": "s",
    "demand.relevant_fns": "count",
    "demand.prepass_fns": "count",
    "demand.dirty_fns": "count",
    "pipeline.build_s": "s",
    "pipeline.scc_busy_s": "s",
    "pipeline.critical_path_s": "s",
    "pipeline.seg_edges": "count",
    "pipeline.arena_peak_mb": "MB",
    "svfa.run_s.uaf": "s",
    "svfa.run_s.df": "s",
    "svfa.run_s.taint-path": "s",
    "svfa.run_s.taint-data": "s",
    "svfa.run_s.null-deref": "s",
    "svfa.run_s_max": "s",
    "svfa.closure_steps": "count",
    "svfa.events": "count",
    "svfa.candidates": "count",
    "svfa.linear_pruned": "count",
    "smt.queries": "count",
    "smt.backend_calls": "count",
    "smt.cache_hits": "count",
    "smt.cache_hit_ratio": "ratio",
    "smt.expr_nodes": "count",
    "smt.backend_query_ms": "ms",
    "teardown.exprs_s": "s",
    "teardown.module_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.stored": "count",
    "cache.dir_bytes": "bytes",
    "sched.steals": "count",
    "sched.utilization": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- statistics ------------------------------------------------------------


def summarize(samples):
    """Median of `samples`, their count, and the highest of the p90/p95/p99/
    p99.9 percentiles that has at least ten samples beyond it (nearest rank;
    None when there are fewer than 100 samples)."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    out = {"p50": statistics.median(ordered), "n": n, "tail": None}
    for q in (99.9, 99, 95, 90):
        if n * (100 - q) / 100 >= 10:
            rank = max(1, -(-n * q // 100))  # ceil(n * q / 100)
            out["tail"] = (q, ordered[int(rank) - 1])
            break
    return out


def scale(seconds, before, after):
    """`seconds` at the host speed where `pbtool calibrate` takes
    CALIBRATION_REF_S, given its times just before and after."""
    return seconds * 2 * CALIBRATION_REF_S / (before + after)


# --- subjects and edits ----------------------------------------------------


def remap_line(line, inserted_at):
    """1-based `line` after one line was inserted at 1-based `inserted_at`."""
    return line + 1 if line >= inserted_at else line


class Subject:
    """A generated subject on disk: source lines, ground truth, and (once
    load_functions has run) the function headers warm_edit inserts pad
    statements under."""

    def __init__(self, directory, kloc):
        self.dir = directory
        self.kloc = kloc
        self.path = os.path.join(directory, "subject.mc")
        with open(self.path) as f:
            self.lines = f.read().split("\n")
        with open(os.path.join(directory, "truth.tsv")) as f:
            self.truth = [row.split("\t") for row in f.read().splitlines()]
        self.headers = {}  # function name -> 0-based index of its header
        self.inside = self.outside = []
        self.edits = 0
        self.reference = None  # report digest of the current text's first run
        self.cache = None  # warm_edit: the summary cache of timed analyses
        self.trace_cache = None  # ... and its copy for the traced runs

    def load_functions(self):
        """Reads functions.tsv (`pbtool functions`): each function's name,
        1-based header line and whether the relevance slice holds it."""
        inside, outside = [], []
        with open(os.path.join(self.dir, "functions.tsv")) as f:
            for row in f.read().splitlines():
                name, line, relevant = row.split("\t")
                index = int(line) - 1
                if self.lines[index].split("(")[0].split()[-1].lstrip("*") != name:
                    raise ValueError("line %s of %s is not the header of %s" %
                                     (line, self.path, name))
                self.headers[name] = index
                (inside if relevant == "1" else outside).append(name)
        self.inside, self.outside = sorted(inside), sorted(outside)

    def insert_pad(self, function, value):
        """Inserts one dead local as the first statement of `function` and
        shifts the ground truth below it. Returns the new line's number."""
        index = self.headers[function] + 1  # 0-based index of the new line
        self.lines.insert(index, "  int zqpad%d = %d;" % (self.edits, value))
        self.edits += 1
        inserted_at = index + 1
        for row in self.truth:
            row[2] = str(remap_line(int(row[2]), inserted_at))
            row[3] = str(remap_line(int(row[3]), inserted_at))
        for name, at in self.headers.items():
            if at >= index:
                self.headers[name] = at + 1
        with open(self.path, "w") as f:
            f.write("\n".join(self.lines))
        self.reference = None
        return inserted_at

    def write_truth(self, path):
        with open(path, "w") as f:
            f.write("".join("\t".join(row) + "\n" for row in self.truth))


# --- processes -------------------------------------------------------------


@dataclasses.dataclass
class Child:
    """Outcome of one child process: exit code, wall and CPU seconds, peak
    RSS, and where its stdout went."""
    code: int
    wall: float
    cpu: float
    rss_mb: float
    out_path: str
    timed_out: bool

    def stdout(self):
        with open(self.out_path, "rb") as f:
            return f.read()


def spawn(argv, out_path, timeout=ANALYSIS_TIMEOUT_S):
    """Runs `argv` to completion (killed after `timeout`), reaping it with
    wait4 so its own rusage is read, not the benchmark's."""
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        killed = []

        def kill():
            killed.append(True)
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, out_path, bool(killed))


def digest(data):
    return hashlib.sha256(data).hexdigest()


# --- build -----------------------------------------------------------------


def build(target_dir):
    """Configures and builds pbtool and the pinpoint CLI; returns their
    paths. Output goes to a log file so stdout stays machine-readable."""
    if not os.path.isfile(os.path.join(SRC_DIR, "CMakeLists.txt")):
        raise SystemExit("perfbench: pinpoint sources (src/) not found next "
                         "to perfbench/; run from a full checkout")
    build_dir = os.path.join(target_dir, "perfbench-cmake")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "wb") as logf:
        for cmd in (["cmake", "-S", HERE, "-B", build_dir],
                    ["cmake", "--build", build_dir, "-j", jobs, "--target",
                     "pbtool", "pinpoint-cli"]):
            if subprocess.call(cmd, stdout=logf, stderr=logf) != 0:
                with open(log_path, errors="replace") as f:
                    sys.stderr.write(f.read()[-4000:])
                raise SystemExit("perfbench: build failed (%s)" % " ".join(cmd))
    return (os.path.join(build_dir, "pbtool"),
            os.path.join(build_dir, "pinpoint", "pinpoint"))


# --- the benchmark ---------------------------------------------------------


class Bench:
    def __init__(self, workload, seed, seconds, target_dir, tools):
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.pbtool, self.cli = tools
        self.rng = random.Random("%s-%d" % (workload, seed))
        self.work = os.path.join(target_dir, "perfbench-work",
                                 "%s-%d-%d" % (workload, seed, os.getpid()))
        self.traces = os.path.join(target_dir, "perfbench-traces")
        self.subject_seeds = [self.rng.randrange(1, 2**31)
                              for _ in range(self.wl["subjects"])]
        self.checks = []      # (truth path, output path) pairs for pbtool check
        self.analyses = 0     # analyses attempted
        self.failures = []    # one reason per failed analysis
        self.counter = 0

    def cli_flags(self):
        flags = ["--checker=" + CHECKERS]
        if not self.wl["demand"]:
            flags.append("--demand=off")
        if self.wl["jobs"] > 1:
            flags.append("--jobs=%d" % self.wl["jobs"])
        return flags

    def out_path(self, tag):
        self.counter += 1
        return os.path.join(self.work, "out", "%s-%05d.txt" % (tag, self.counter))

    def analyse(self, subject, cache_dir=None):
        """One untraced CLI analysis of `subject`, judged, returned."""
        argv = [self.cli] + self.cli_flags()
        if cache_dir:
            argv.append("--cache-dir=" + cache_dir)
        argv.append(subject.path)
        child = spawn(argv, self.out_path("cli"))
        self.judge(child, subject)
        return child

    def judge(self, child, subject):
        """The first analysis of each input is queued for the ground-truth
        oracle; every later one must repeat its report digest."""
        self.analyses += 1
        if child.timed_out or child.code != 0:
            self.failures.append("%s: exit %s%s" % (
                child.out_path, child.code, " (timeout)" if child.timed_out else ""))
            return
        out = digest(child.stdout())
        if subject.reference is None:
            subject.reference = out
            truth = child.out_path + ".truth"
            subject.write_truth(truth)
            self.checks.append((truth, child.out_path))
        elif out != subject.reference:
            self.failures.append("%s: report digest differs from the first "
                                 "analysis of the same input" % child.out_path)

    def setup_once(self, rep):
        """One set-up from scratch in its own directory: generates and
        writes the subjects, then runs the warm-up, one analysis of the first
        subject, or on warm_edit one cold analysis of each subject that
        fills its summary cache. Returns the subjects and its seconds."""
        root = os.path.join(self.work, "setup%d" % rep)
        os.makedirs(root)
        start = time.perf_counter()
        subjects = []
        for i, sseed in enumerate(self.subject_seeds):
            d = os.path.join(root, "s%d" % i)
            gen = spawn([self.pbtool, "gen", "--seed=%d" % sseed,
                         "--loc=%d" % self.wl["loc"], "--out=" + d],
                        os.path.join(root, "gen%d.txt" % i))
            if gen.code != 0:
                raise SystemExit("perfbench: subject generation failed")
            loc = int(gen.stdout().split()[0].split(b"=")[1])
            subjects.append(Subject(d, loc / 1000.0))
        if self.wl["warm_edit"]:
            for s in subjects:
                s.cache = os.path.join(s.dir, "cache")
                self.analyse(s, s.cache)
        else:
            self.analyse(subjects[0])
        return subjects, time.perf_counter() - start

    def prepare(self):
        """The set-up whose subjects the run uses, plus (warm_edit, untimed)
        the function list its edits pick from. Returns the subjects and the
        set-up seconds."""
        subjects, seconds = self.setup_once(0)
        if self.wl["warm_edit"]:
            for s in subjects:
                lister = spawn([self.pbtool, "functions", "--dir=" + s.dir],
                               os.path.join(s.dir, "functions.txt"))
                if lister.code != 0:
                    raise SystemExit("perfbench: listing functions failed")
                s.load_functions()
        return subjects, seconds

    def calibrate(self):
        """Wall and per-thread CPU seconds of one `pbtool calibrate` run on
        as many threads as the analyses may use: whether the host gives the
        second core of a --jobs=2 analysis changes from minute to minute."""
        res = spawn([self.pbtool, "calibrate", "--threads=%d" % self.wl["jobs"]],
                    self.out_path("calibrate"))
        if res.code != 0:
            raise SystemExit("perfbench: calibration failed")
        wall, cpu = map(float, res.stdout().split()[:2])
        return wall, cpu

    def extra_setup(self, rep):
        """A further set-up, timed and then thrown away; returns seconds."""
        seconds = self.setup_once(rep)[1]
        shutil.rmtree(os.path.join(self.work, "setup%d" % rep))
        return seconds

    def next_input(self, subjects, i):
        """The subject of the i-th analysis, round robin; on warm_edit it
        first gets one seeded pad statement, alternating between functions
        inside and outside the relevance slice."""
        subject = subjects[i % len(subjects)]
        if self.wl["warm_edit"]:
            nth = i // len(subjects)
            pool = subject.inside if nth % 2 == 0 else subject.outside
            subject.insert_pad(self.rng.choice(pool), self.rng.randrange(1000))
        return subject

    def run_oracle(self):
        if not self.checks:
            return
        args = [self.pbtool, "check"]
        for truth, out in self.checks:
            args += [truth, out]
        res = spawn(args, os.path.join(self.work, "check.txt"), timeout=120)
        for line in res.stdout().decode(errors="replace").splitlines():
            if line.startswith("FAIL "):
                self.failures.append(line[len("FAIL "):])
        if res.code not in (0, 1):
            self.failures.append("oracle exited with %s" % res.code)

    # --trace 0 -------------------------------------------------------------

    def timed(self):
        """The timed phase. The host's speed drifts by up to 2x for minutes
        at a time, so each analysis and each set-up is paired with the
        calibration loops run just before and after it, with the phase's
        clock paused, and its times are scaled to the speed at which that
        loop takes CALIBRATION_REF_S."""
        calibrations = [self.calibrate()]
        subjects, first = self.prepare()
        calibrations.append(self.calibrate())
        setups = [first]
        scaled_setups = [scale(first, calibrations[0][0], calibrations[1][0])]
        n = len(subjects)
        walls = [[] for _ in subjects]
        cpus = [[] for _ in subjects]
        rss, kloc, elapsed, scaled_elapsed = [], 0.0, 0.0, 0.0
        i = 0

        def extra_setup():
            setups.append(self.extra_setup(len(setups)))
            calibrations.append(self.calibrate())
            scaled_setups.append(scale(setups[-1], calibrations[-2][0],
                                       calibrations[-1][0]))

        # Whole rounds over the subjects, so each subject weighs the same
        # in every run. The other set-ups are spread evenly over the phase,
        # paused out of its clock, so one slow spell cannot hit them all.
        while i % n or elapsed < self.seconds:
            if (len(setups) < SETUP_REPEATS and
                    elapsed >= len(setups) * self.seconds / SETUP_REPEATS):
                extra_setup()
            start = time.perf_counter()
            subject = self.next_input(subjects, i)
            child = self.analyse(subject, subject.cache)
            took = time.perf_counter() - start
            calibrations.append(self.calibrate())
            (before, before_cpu), (after, after_cpu) = calibrations[-2:]
            elapsed += took
            scaled_elapsed += scale(took, before, after)
            walls[i % n].append(scale(child.wall, before, after))
            cpus[i % n].append(scale(child.cpu, before_cpu, after_cpu))
            rss.append(child.rss_mb)
            kloc += subject.kloc
            i += 1
        while len(setups) < SETUP_REPEATS:
            extra_setup()
        self.run_oracle()
        cal_wall = statistics.median(c[0] for c in calibrations)
        wall_sum = summarize([w for ws in walls for w in ws])
        print("# %s seed=%d: %d timed analyses (%d per subject) in %.2fs; "
              "calibration p50 %.4fs (n=%d); scaled wall p50 %.4fs (n=%d%s); "
              "unscaled set-ups %s s" % (
                  self.name, self.seed, i, i // n, elapsed, cal_wall,
                  len(calibrations), wall_sum["p50"], wall_sum["n"],
                  tail_text(wall_sum), " ".join("%.3f" % t for t in setups)))
        return {
            "kloc_per_s": kloc / scaled_elapsed,
            # Each subject's median, averaged over the subjects: a pooled
            # median over subjects of different sizes jumps between them.
            "analysis_s_p50": statistics.mean(map(statistics.median, walls)),
            "cpu_s_p50": statistics.mean(map(statistics.median, cpus)),
            # The median, not the max: peaks vary by subject and, under
            # --jobs, with thread interleaving; the max follows the outlier.
            "peak_rss_mb": statistics.median(rss),
            "setup_s": statistics.median(scaled_setups),
        }

    # --trace 1 -------------------------------------------------------------

    def traced(self):
        subjects, _ = self.prepare()
        # The traced runs get their own copy of each warm cache, so both
        # sides of every comparison start from the same cache state.
        for s in subjects:
            if s.cache:
                s.trace_cache = s.cache + "-traced"
                shutil.copytree(s.cache, s.trace_cache)
        figures, untraced, traced_walls = [], [], []
        trace_file = None
        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < self.seconds:
            subject = self.next_input(subjects, i)
            cli = self.analyse(subject, subject.cache)
            untraced.append(cli.wall)
            report = self.out_path("traced-report")
            trace_file = report + ".trace.json"
            argv = [self.pbtool, "trace", "--jobs=%d" % self.wl["jobs"],
                    "--demand=%s" % ("on" if self.wl["demand"] else "off"),
                    "--trace-out=" + trace_file, "--report-out=" + report]
            if subject.trace_cache:
                argv.append("--cache-dir=" + subject.trace_cache)
            argv.append(subject.path)
            child = spawn(argv, self.out_path("trace"))
            self.analyses += 1
            if child.code != 0 or child.timed_out:
                self.failures.append("traced run exited with %s" % child.code)
            else:
                traced_walls.append(child.wall)
                figures.append(json.loads(child.stdout().decode().splitlines()[-1]))
                with open(report, "rb") as f:
                    if cli.code == 0 and f.read() != cli.stdout():
                        self.failures.append("traced run's reports differ from "
                                             "the untraced CLI's (%s)" % report)
            i += 1
        self.run_oracle()
        probe = spawn([self.pbtool, "probe", "--seed=%d" % self.seed],
                      self.out_path("probe"))
        if probe.code != 0 or not figures:
            self.failures.append("probe or every traced run failed")
            return {}
        metrics = {}
        for name in PER_LAYER_UNITS:
            values = [f[name] for f in figures if name in f]
            if values:
                metrics[name] = statistics.median(values)
        metrics["smt.backend_query_ms"] = json.loads(
            probe.stdout().decode())["smt.backend_query_ms"]
        metrics["trace.overhead"] = (statistics.median(traced_walls) /
                                     statistics.median(untraced) - 1)
        wall = statistics.median(f["trace.wall_s"] for f in figures)
        selfs = sorted((statistics.median(f[k] for f in figures), k[len("self_s."):])
                       for k in figures[0] if k.startswith("self_s."))
        print("# self time (median s) of %.3fs traced wall: %s" % (
            wall, ", ".join("%s %.4f" % (n, v) for v, n in reversed(selfs))))
        os.makedirs(self.traces, exist_ok=True)
        kept = os.path.join(self.traces, "%s-seed%d.json" % (self.name, self.seed))
        shutil.copyfile(trace_file, kept)
        print("# %s seed=%d: %d traced rounds; spans of the last in %s" % (
            self.name, self.seed, len(figures), kept))
        return metrics


def tail_text(summary):
    if summary["tail"] is None:
        return ""
    q, v = summary["tail"]
    return ", p%g %.4fs" % (q, v)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tools = build(target)
    bench = Bench(args.workload, args.seed, args.seconds, target, tools)
    os.makedirs(os.path.join(bench.work, "out"), exist_ok=True)
    try:
        values = bench.traced() if args.trace else bench.timed()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for reason in bench.failures[:20]:
        log("perfbench: FAIL " + reason)
    failed = len(bench.failures)
    correct = failed == 0 and set(values) == set(units)
    print("# fail_rate %d/%d" % (failed, bench.analyses))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.analyses,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units if k in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
