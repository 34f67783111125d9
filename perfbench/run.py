#!/usr/bin/env python3
"""depscope benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a depscope checkout. The script builds the Go harness
in perfbench/ and cmd/depserver into .bench_build/, runs the workload in
fresh processes, checks every output, and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
A failed output check makes the exit code non-zero.

The serve ladder, reference rate, latency limit and write rates are in
load.go; README.md gives the reasons for them and the layer-to-metric
predictions.
"""

import argparse
import json
import os
import re
import socket
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD = ROOT / ".bench_build"
HARNESS = BUILD / "bin" / "perfbench-harness"
DEPSERVER = BUILD / "bin" / "depserver"
PROC_TIMEOUT = 170  # seconds, for any one child process

WORKLOADS = {"paper-100k": "batch", "stream-chains-100k": "batch",
             "serve-read-20k": "serve", "serve-write-20k": "serve"}
SERVE_SCALE = 20000
SETUP_SPAWNS = 10       # set-up-only job processes per batch run, besides the job itself
SERVER_STARTS = 3       # depservers started per serve run, each under load
SERVE_COUNTS = ("gen.sent", "gen.reads", "gen.writes")  # summed over the servers; other figures are medians
READY_TIMEOUT_S = 120
MIN_TRACE_COVERAGE = 0.95  # share of traced wall time the critical path's depscope calls must explain
MEM_TOLERANCE = 0.05    # traced attribution against the untraced run's retained heap


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def go_env():
    """Keep every file the Go toolchain writes inside the checkout."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "go-cache"), ("GOMODCACHE", "go-mod"),
                     ("GOPATH", "go-path"), ("GOTMPDIR", "tmp"),
                     ("GOTELEMETRYDIR", "go-telemetry")):
        path = BUILD / sub
        path.mkdir(parents=True, exist_ok=True)
        env[key] = str(path)
    env.update(GOTOOLCHAIN="local", GOPROXY="off",
               GOTELEMETRY="off", CGO_ENABLED="0", GOENV="off")
    return env


def build():
    env = go_env()
    for cwd, out, pkg in ((HERE, HARNESS, "."), (ROOT, DEPSERVER, "./cmd/depserver")):
        r = subprocess.run(["go", "build", "-o", str(out), pkg], cwd=cwd, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=840)
        if r.returncode != 0:
            fail("build of %s failed:\n%s" % (pkg, r.stdout))


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def run_harness(args):
    """Runs the harness to completion and returns its JSON result."""
    r = subprocess.run([str(HARNESS)] + args, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=PROC_TIMEOUT)
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        raise RuntimeError("harness %s exited %d" % (args[0], r.returncode))
    return last_json(r.stdout)


def spawn_job(workload, seed, trace, setup_only=False):
    args = ["job", "-workload", workload, "-seed", str(seed), "-trace", str(trace)]
    if setup_only:
        args.append("-setup-only")
    # The child measures set-up from this instant to its first depscope call.
    return run_harness(args + ["-t0", str(time.time_ns())])


class Digests:
    """Report digests remembered across runs of this checkout: the same
    workload and seed must always produce the same output, and Table 1 of
    both batch workloads must agree for a seed."""

    def __init__(self):
        self.path = BUILD / "digests.json"
        try:
            self.known = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.known = {}

    def check(self, key, value, problems):
        want = self.known.setdefault(key, value)
        if want != value:
            problems.append("digest %s is %s, earlier runs gave %s" % (key, value[:12], want[:12]))
            return False
        return True

    def save(self):
        self.path.write_text(json.dumps(self.known, indent=1, sort_keys=True))


def run_batch(name, seed, trace):
    attempted = failed = 0
    problems = []
    digests = Digests()

    def absorb(res):
        nonlocal attempted, failed
        attempted += res["attempted"]
        failed += res["failed"]
        problems.extend(res["problems"])

    def check_digests(res):
        nonlocal attempted, failed
        for key, value in (("%s/%d/output" % (name, seed), res["digests"]["output"]),
                           ("table1/%d" % seed, res["digests"]["table1"])):
            attempted += 1
            if not digests.check(key, value, problems):
                failed += 1

    setups = [spawn_job(name, seed, 0, setup_only=True)["metrics"]["setup_s"]
              for _ in range(SETUP_SPAWNS)]
    main = spawn_job(name, seed, 0)
    absorb(main)
    check_digests(main)
    setups.append(main["metrics"]["setup_s"])
    metrics = dict(main["metrics"])
    metrics["setup_s"] = statistics.median(setups)
    if trace:
        traced = spawn_job(name, seed, 1)
        absorb(traced)
        attempted += 1
        if traced["digests"]["output"] != main["digests"]["output"]:
            failed += 1
            problems.append("traced composition digest %s differs from the untraced run's %s"
                            % (traced["digests"]["output"][:12], main["digests"]["output"][:12]))
        # The traced run stops after the job; the query phase's and the
        # streamed validation's figures come from the untraced run.
        metrics.update(traced["metrics"])
        metrics["trace.overhead_frac"] = traced["metrics"]["run_wall_s"] / main["metrics"]["run_wall_s"] - 1
        attempted += 1
        if metrics["trace.coverage_frac"] < MIN_TRACE_COVERAGE:
            failed += 1
            problems.append("depscope calls on the critical path explain %.3f of traced wall time"
                            % metrics["trace.coverage_frac"])
        # The traced composition must retain the heap analysis.Execute does.
        attributed, retained = metrics["mem.attributed_bytes_per_site"], main["metrics"]["retained_bytes_per_site"]
        attempted += 1
        if abs(attributed - retained) > MEM_TOLERANCE * retained:
            failed += 1
            problems.append("traced memory attribution sums to %.0f B/site, the untraced run retains %.0f"
                            % (attributed, retained))
        write_ledger(name, seed, traced["ledger"])
    digests.save()
    return attempted, failed, problems, metrics


def free_port():
    """A loopback port free for both TCP and UDP. depserver's DNS listener
    binds the same port number for both, so an OS-picked ":0" can collide
    on the TCP side; the admin listener uses one as well."""
    while True:
        with socket.socket() as t, socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as u:
            t.bind(("127.0.0.1", 0))
            port = t.getsockname()[1]
            try:
                u.bind(("127.0.0.1", port))
            except OSError:
                continue
            return port


def http_json(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as r:
        return json.loads(r.read())


class Server:
    """A fresh depserver; set-up is from spawn until /v1/snapshot is ready."""

    def __init__(self, scale, seed, ready_timeout):
        # A port taken between free_port() and depserver's bind is the
        # harness's race, not a depserver failure: try fresh ports.
        for attempt in range(3):
            self.port, dns = free_port(), free_port()
            while dns == self.port:
                dns = free_port()
            self.base = "http://127.0.0.1:%d" % self.port
            with open(BUILD / "depserver.log", "w") as log:
                t0 = time.monotonic()
                self.proc = subprocess.Popen(
                    [str(DEPSERVER), "-scale", str(scale), "-seed", str(seed), "-prewarm", "-allow-delta",
                     "-addr", "127.0.0.1:%d" % dns, "-http", "127.0.0.1:%d" % self.port],
                    stdout=log, stderr=log)
            try:
                meta = self._wait_ready(t0 + ready_timeout)
                break
            except BaseException:
                self.stop()
                if attempt < 2 and "address already in use" in (BUILD / "depserver.log").read_text():
                    continue
                raise
        self.setup_s = time.monotonic() - t0
        self.build_s = meta["build_seconds"]

    def _wait_ready(self, deadline):
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("depserver exited with %d before ready" % self.proc.returncode)
            try:
                meta = http_json(self.base + "/v1/snapshot", timeout=2)
                if meta.get("ready"):
                    return meta
            except (OSError, ValueError):
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("depserver not ready in time")
            time.sleep(0.01)

    def retained_bytes(self):
        # pprof's heap endpoint forces a collection first when gc=1.
        with urllib.request.urlopen(self.base + "/debug/pprof/heap?gc=1", timeout=30) as r:
            r.read()
        # /debug/vars also carries the telemetry registry, whose +Inf bucket
        # bounds are not JSON; read the one memstats field.
        with urllib.request.urlopen(self.base + "/debug/vars", timeout=10) as r:
            m = re.search(rb'"HeapAlloc":\s*(\d+)', r.read())
        if m is None:
            raise RuntimeError("no memstats.HeapAlloc in /debug/vars")
        return int(m.group(1))

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM for depserver")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def run_serve(name, seed, seconds, trace):
    """Puts each of SERVER_STARTS fresh depservers under the workload for an
    equal share of the seconds; the last one also climbs the ladder. Each
    figure is the median over the servers, so a burst of outside
    interference during one of them does not move it."""
    scale = SERVE_SCALE
    parts = []
    for i in range(SERVER_STARTS):
        server = Server(scale, seed, READY_TIMEOUT_S)
        try:
            args = ["load", "-workload", name, "-addr", server.base, "-pid", str(server.proc.pid),
                    "-scale", str(scale), "-seed", str(seed), "-seconds", str(seconds / SERVER_STARTS)]
            if i == SERVER_STARTS - 1:
                args.append("-ladder")
            load = run_harness(args)
            load["metrics"].update(setup_s=server.setup_s, run_wall_s=server.build_s,
                                   peak_rss_mb=server.peak_rss_mb(),
                                   retained_bytes_per_site=server.retained_bytes() / scale)
        finally:
            server.stop()
        parts.append(load)
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    problems = [q for p in parts for q in p["problems"]]
    metrics = {}
    for key in set().union(*(p["metrics"] for p in parts)):
        values = [p["metrics"][key] for p in parts if key in p["metrics"]]
        metrics[key] = sum(values) if key in SERVE_COUNTS else statistics.median(values)
    # The read p50 is the median over every server's windows rather than
    # the median of the servers' figures: a burst of queueing fills a window
    # or two, not a whole server's step.
    metrics["read_p50_ms"] = statistics.median(w for p in parts for w in p["read_windows"])
    metrics["ops_ok_frac"] = (attempted - failed) / attempted
    if trace:
        layers = run_harness(["serve-layers", "-scale", str(scale), "-seed", str(seed)])
        attempted += layers["attempted"]
        failed += layers["failed"]
        problems.extend(layers["problems"])
        # The load's server CPU per request stays; everything else about
        # the layers comes from the in-process run.
        cpu = metrics.get("serve.cpu_us_per_req", 0)
        metrics.update(layers["metrics"])
        metrics["serve.cpu_us_per_req"] = cpu
        metrics["serve.loopback_overhead_us"] = metrics["gen.service_mean_us"] - layers["metrics"]["serve.mix_mean_us"]
        write_ledger(name, seed, layers["ledger"])
    return attempted, failed, problems, metrics


# Per-layer metrics a workload kind has no layer for; reported as 0.
NOT_APPLICABLE = {
    "batch": ("gen.lag_p99_ms", "gen.backlog_max", "gen.read_max_rps",
              "serve.loopback_overhead_us", "serve.sites_us", "mem.serve_bytes_per_site",
              "incident.sweep_s", "incident.sweep_scenarios"),
    "serve": ("analysis.dns_classifier_accuracy", "analysis.validation_s",
              "incident.sweep_s", "incident.sweep_scenarios"),
}


def write_ledger(name, seed, rows):
    path = BUILD / ("ledger-%s-%d.json" % (name, seed))
    path.write_text(json.dumps(rows, indent=1))
    print("ledger (%s): %-28s %6s %10s %10s %10s" % (path.name, "span", "count", "total_s", "self_s", "critical_s"),
          file=sys.stderr)
    for r in rows:
        print("  %-40s %6d %10.4f %10.4f %10.4f" % (r["name"], r["count"], r["total_s"], r["self_s"], r["critical_s"]),
              file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = WORKLOADS.get(args.workload)
    if kind is None:
        fail("unknown workload %r (have %s)" % (args.workload, ", ".join(WORKLOADS)))
    if not (ROOT / "go.mod").is_file() or not (ROOT / "cmd" / "depserver").is_dir():
        fail("run from the root of a depscope checkout (no go.mod or cmd/depserver here)")
    BUILD.mkdir(exist_ok=True)
    build()

    if kind == "batch":
        attempted, failed, problems, metrics = run_batch(args.workload, args.seed, args.trace)
    else:
        attempted, failed, problems, metrics = run_serve(args.workload, args.seed, args.seconds, args.trace)

    if args.trace:
        for name in NOT_APPLICABLE[kind]:
            metrics.setdefault(name, 0)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    out = {}
    for m in wanted:
        if m["name"] not in metrics:
            raise RuntimeError("workload %s produced no %s" % (args.workload, m["name"]))
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    for p in problems[:20]:
        print("check failed: " + p, file=sys.stderr)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
