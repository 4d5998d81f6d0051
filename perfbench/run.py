#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the paths users run: `gcs run`,
`gcs sweep`, a `gcs chaos run` oracle scenario and a `gcs serve` daemon.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
    python3 perfbench/run.py --workload NAME --record-golden

Run it from the root of a checkout. It builds the `gcs` binary and the
`perfbench` tool (perfbench/Cargo.toml) into $CARGO_TARGET_DIR
(default `.bench_build`), makes the workload's inputs from --seed, and
prints one JSON result as the last line of stdout.

--trace 0 drives the `gcs` binary as a black box and reports the
end-to-end metrics. --trace 1 rebuilds the same execution in process from
the crates' public APIs, times every call into each crate at its boundary,
and reports the per-layer metrics (see README.md). All files go under
--out (default `.bench_build/perfbench-out`); CLI runs execute in a
scratch directory there, so nothing lands in the source tree.

Every run first checks a canary: the workload at the fixed seed
CANARY_SEED, whose exact results (counts, skew bits, verdict, CSV or body
digests) are recorded in golden.json. The reference execution of the
driver's seed is rebuilt in process from the same crates as the CLI, so
it cannot catch a change of simulation results; the canary does.
--record-golden rewrites the workload's entry after an intended change.
"""

import argparse
import http.client
import json
import os
import random
import selectors
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib as bl  # noqa: E402

# Set-up invocations take this share of a run's measuring time, interleaved
# with the timed operations so that both see the same host conditions.
SETUP_SHARE = 0.2
MIN_SETUP_REPS = 20
# Daemon launches are also capped: each leaves its /stats and shutdown
# connections in TIME_WAIT for a minute, and thousands of those from one
# run slowed the launches of the next.
MAX_DAEMON_LAUNCHES = 200
TINY_HORIZON = "0.000000001"
CANARY_SEED = 1
GOLDEN = Path(__file__).resolve().parent / "golden.json"
# A fixed `kind=run` spec for the serve canary. The generator's specs all
# have horizon 30, so this one never collides with them.
SERVE_CANARY_SPEC = "topologies = grid:3x3\nalgos = aopt\nseeds = 77..78\nhorizon = 31\n"
# Layer times must account for the traced wall time to within this share
# (the largest end-to-end bound in BENCHMARK.json).
ACCOUNTING_BOUND = 0.25


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def sim_seed_of(seed):
    """The simulation seed of every run, job grid and fault schedule."""
    return random.Random(seed).randrange(1, 2**31)


class Bench:
    def __init__(self, args):
        self.root = Path.cwd()
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.record_golden = args.record_golden
        self.sim_seed = sim_seed_of(args.seed)
        self.canary_seed = sim_seed_of(CANARY_SEED)
        target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        self.target = target if target.is_absolute() else self.root / target
        out = Path(args.out) if args.out else self.target / "perfbench-out"
        self.out = (out if out.is_absolute() else self.root / out) / (
            f"{args.workload}-seed{args.seed}-trace{args.trace}")
        self.tally = bl.Tally()
        self.nproc = os.cpu_count() or 1

    # -- build and process plumbing -------------------------------------

    def build(self):
        if not (self.root / "Cargo.toml").is_file() or not (self.root / "crates").is_dir():
            raise SystemExit("error: run from the root of a gcs checkout (no Cargo.toml/crates here)")
        env = dict(os.environ, CARGO_TARGET_DIR=str(self.target))
        for manifest in ("Cargo.toml", "perfbench/Cargo.toml"):
            cmd = ["cargo", "build", "--release", "--offline", "--locked",
                   "--manifest-path", manifest]
            if manifest == "Cargo.toml":
                cmd += ["--bin", "gcs"]
            done = subprocess.run(cmd, cwd=self.root, env=env,
                                  stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                raise SystemExit(f"error: build of {manifest} failed")
        self.gcs = str(self.target / "release" / "gcs")
        self.tool = str(self.target / "release" / "perfbench")
        if self.out.exists():
            shutil.rmtree(self.out)
        self.work = self.out / "work"
        self.work.mkdir(parents=True)

    def spawn(self, cmd, name):
        """Starts `cmd` in the scratch directory with stdout/stderr in files."""
        stdout = open(self.work / f"{name}.out", "wb")
        stderr = open(self.work / f"{name}.err", "wb")
        try:
            return subprocess.Popen(cmd, cwd=self.work, stdout=stdout, stderr=stderr)
        finally:
            stdout.close()
            stderr.close()

    def reap(self, proc):
        """Waits for `proc`; returns (exit code, peak RSS in MiB)."""
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024

    def timed(self, cmd, name="cli"):
        """Runs `cmd` to completion: (wall s, exit code, RSS MiB, stdout)."""
        started = time.perf_counter()
        proc = self.spawn(cmd, name)
        code, rss = self.reap(proc)
        wall = time.perf_counter() - started
        return wall, code, rss, (self.work / f"{name}.out").read_text()

    def tool_json(self, args, name="tool"):
        _, code, _, out = self.timed([self.tool] + args, name)
        if code != 0:
            err = (self.work / f"{name}.err").read_text()
            raise SystemExit(f"error: perfbench {args[0]} failed: {err.strip()}")
        return json.loads(out.strip().splitlines()[-1])

    # -- shared shape of the simulation workloads -----------------------

    def measure_cli(self, setup_cmd, cmd, check, seconds, min_reps=3):
        """Runs `cmd` until `seconds` have passed, interleaved with
        `setup_cmd` (the same invocation cut to an empty horizon) so that
        set-up takes SETUP_SHARE of the time. Every invocation's output is
        checked; a failed check counts as failed."""
        setup, walls, rss = [], [], []
        setup_total = op_total = 0.0
        started = time.perf_counter()
        while (len(walls) < min_reps or len(setup) < MIN_SETUP_REPS
               or time.perf_counter() - started < seconds):
            if not setup or setup_total < SETUP_SHARE * (setup_total + op_total):
                wall, code, _, _ = self.timed(setup_cmd)
                self.tally.record(code == 0, f"setup exit {code}")
                setup.append(wall)
                setup_total += wall
                continue
            wall, code, peak, out = self.timed(cmd)
            problems = check(out) if code == 0 else [f"exit {code}"]
            self.tally.record(not problems, "; ".join(problems))
            walls.append(wall)
            rss.append(peak)
            op_total += wall
        self.provenance.update({"setup_reps": len(setup), "op_reps": len(walls)})
        return setup, walls, rss

    def canary(self, tool_args, cli_cmd, check, extra=dict):
        """Runs the workload at the canary seed: the CLI's output must
        match the in-process reference (`check(stdout, ref)`), and the
        reference's counts, bits and verdict, with the values `extra()`
        returns, must match golden.json."""
        ref = self.tool_json(tool_args, "canary-tool")["reference"]
        _, code, _, out = self.timed(cli_cmd, "canary")
        problems = check(out, ref) if code == 0 else [f"exit {code}"]
        self.tally.record(not problems, "canary: " + "; ".join(problems))
        values = {k: ref[k] for k in bl.GOLDEN_FIELDS if k in ref}
        self.check_golden({**values, **extra()})

    def check_golden(self, values):
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
        if self.record_golden:
            golden.update({"canary_seed": CANARY_SEED, self.workload: values})
            GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
            log(f"perfbench: recorded the {self.workload} canary in {GOLDEN.name}")
            raise SystemExit(0)
        problems = bl.golden_problems(values, golden.get(self.workload))
        self.tally.record(not problems, "canary: " + "; ".join(problems))
        self.provenance["canary"] = {"seed": CANARY_SEED, "problems": problems}

    def sim_metrics(self, setup, walls, rss, events, events0):
        setup_s = bl.median(setup)
        op_s = bl.median(walls)
        return {
            "setup_s": setup_s,
            # Marginal rate: the empty-horizon run's time and events are
            # process start, parsing, graph/observer construction and t = 0.
            "sim_events_per_s": (events - events0) / max(op_s - setup_s, 1e-9),
            "op_p50_ms": op_s * 1e3,
            "peak_rss_mib": bl.median(rss),
        }

    # -- workloads --------------------------------------------------------

    def run_flags(self, sim_seed):
        return ["--topology", "grid:32x32", "--algo", "aopt", "--eps", "0.01",
                "--t", "0.1", "--delays", "uniform", "--rates", "walk",
                "--seed", str(sim_seed)]

    def run_grid(self):
        flags = self.run_flags(self.sim_seed)
        horizon = "10"
        self.provenance = {"sim_seed": self.sim_seed, "threads": 1, "horizon": horizon}
        canary = self.run_flags(self.canary_seed) + ["--horizon", horizon]
        self.canary(["run"] + canary, [self.gcs, "run"] + canary + ["--threads", "1"],
                    bl.check_run)
        ref0 = self.tool_json(["run"] + flags + ["--horizon", TINY_HORIZON])["reference"]
        if self.trace:
            traced = self.tool_json(["run"] + flags + ["--horizon", horizon,
                                                         "--trace-seconds", str(self.seconds)])
        else:
            traced = self.tool_json(["run"] + flags + ["--horizon", horizon])
        ref = traced["reference"]
        cli = [self.gcs, "run"] + flags + ["--threads", "1"]
        setup, walls, rss = self.measure_cli(
            cli + ["--horizon", TINY_HORIZON], cli + ["--horizon", horizon],
            lambda out: bl.check_run(out, ref),
            seconds=3 if self.trace else self.seconds)
        e2e = self.sim_metrics(setup, walls, rss, ref["events"], ref0["events"])
        if not self.trace:
            return e2e
        return self.sim_layers(traced)

    def chaos_spec(self, horizon, sim_seed):
        # The seed drives delays, rate walks and every fault coin flip; the
        # clauses stay fixed so that each seed does the same amount of work.
        # They are in-model (drop/dup, clog within 𝒯 = 0.1): the oracle must
        # stay clean, so any violation is a finding and fails the run.
        lines = ["topology = grid:12x12", "algo = aopt", "eps = 0.01", "t = 0.1",
                 "delay = uniform", "rates = walk", f"horizon = {horizon}",
                 f"seed = {sim_seed}",
                 "fault = drop:2..18:*:0.05",
                 "fault = dup:4..16:*:0.05:0.03",
                 "fault = clog:6..10:*:0.08"]
        return "\n".join(lines) + "\n"

    def chaos_oracle(self):
        spec, spec0 = self.work / "scenario.chaos", self.work / "empty.chaos"
        spec.write_text(self.chaos_spec(20, self.sim_seed))
        spec0.write_text(self.chaos_spec(TINY_HORIZON, self.sim_seed))
        self.provenance = {"spec": spec.read_text(), "threads": 1}
        canary = self.work / "canary.chaos"
        canary.write_text(self.chaos_spec(20, self.canary_seed))
        self.canary(["chaos", str(canary)],
                    [self.gcs, "chaos", "run", str(canary), "--threads", "1"], bl.check_chaos)
        ref0 = self.tool_json(["chaos", str(spec0)])["reference"]
        args = ["chaos", str(spec)] + (["--trace-seconds", str(self.seconds)] if self.trace else [])
        traced = self.tool_json(args)
        ref = traced["reference"]
        cli = [self.gcs, "chaos", "run"]
        setup, walls, rss = self.measure_cli(
            cli + [str(spec0), "--threads", "1"], cli + [str(spec), "--threads", "1"],
            lambda out: bl.check_chaos(out, ref),
            seconds=3 if self.trace else self.seconds)
        e2e = self.sim_metrics(setup, walls, rss, ref["events"], ref0["events"])
        if not self.trace:
            return e2e
        return self.sim_layers(traced)

    def sweep_spec(self, horizon, sim_seed):
        # The seed picks the job seeds (topology, delay and rate randomness);
        # the axes stay fixed so that each seed does the same amount of work.
        first = sim_seed % 10**6
        return (
            "topologies = path:8, ring:16, grid:4x4, tree:15\n"
            "algos = aopt, mingap, envelope, jump\n"
            "eps = 0.01, 0.02\n"
            f"seeds = {first}..{first + 4}\n"
            f"horizon = {horizon}\n")

    def sweep_small(self):
        workers = min(2, self.nproc)
        spec, spec0 = self.work / "grid.sweep", self.work / "empty.sweep"
        spec.write_text(self.sweep_spec(60, self.sim_seed))
        spec0.write_text(self.sweep_spec(0, self.sim_seed))
        self.provenance = {"spec": spec.read_text(), "workers": workers, "threads": 1}
        canary, canary_csv = self.work / "canary.sweep", self.work / "canary.csv"
        canary_ref_csv = self.work / "canary-reference.csv"
        canary.write_text(self.sweep_spec(60, self.canary_seed))
        self.canary(["sweep", str(canary), "--csv", str(canary_ref_csv)],
                    [self.gcs, "sweep", "--jobs", str(workers), "--csv", str(canary_csv),
                     "--spec", str(canary)],
                    lambda _out, _ref: bl.csv_problems(canary_csv.read_bytes(),
                                                       bl.sha256(canary_ref_csv.read_bytes())),
                    extra=lambda: {"csv_sha256": bl.sha256(canary_ref_csv.read_bytes())})
        ref_csv, ref0_csv = self.work / "reference.csv", self.work / "reference0.csv"
        ref0 = self.tool_json(["sweep", str(spec0), "--csv", str(ref0_csv)])["reference"]
        args = ["sweep", str(spec), "--csv", str(ref_csv)]
        if self.trace:
            args += ["--jobs", str(workers), "--trace-seconds", str(self.seconds)]
        traced = self.tool_json(args)
        ref = traced["reference"]
        digest = bl.sha256(ref_csv.read_bytes())
        if ref["failed"]:
            self.tally.record(False, f"{ref['failed']} reference jobs failed")
        out_csv = self.work / "cli.csv"

        cli = [self.gcs, "sweep", "--jobs", str(workers), "--csv", str(out_csv), "--spec"]
        setup, walls, rss = self.measure_cli(
            cli + [str(spec0)], cli + [str(spec)],
            lambda _out: bl.csv_problems(out_csv.read_bytes(), digest),
            seconds=3 if self.trace else self.seconds)
        e2e = self.sim_metrics(setup, walls, rss, ref["events"], ref0["events"])
        if not self.trace:
            return e2e
        traced_csv = Path(traced["traced_csv"]).read_bytes()
        self.tally.record(bl.digest_matches(traced_csv, digest),
                          "traced sweep CSV differs from the untraced reference")
        return self.sweep_layers(traced)

    # -- serve --------------------------------------------------------------

    def http(self, addr, method, path, body=None):
        host, port = addr.rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.request(method, path, body=body)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def start_daemon(self, name):
        """Launches `gcs serve`; returns (process, address, seconds until
        /stats answered). Its stdout is a pipe read as lines arrive, so
        readiness is seen at once rather than at the next polling step."""
        started = time.perf_counter()
        stderr = open(self.work / f"{name}.err", "wb")
        try:
            proc = subprocess.Popen([self.gcs, "serve", "--addr", "127.0.0.1:0", "--jobs", "1",
                                     "--dump-dir", str(self.work / "dumps")],
                                    cwd=self.work, stdout=subprocess.PIPE, stderr=stderr)
        finally:
            stderr.close()
        head = b""
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while b"\n" not in head.partition(b"listening on ")[2]:
                left = 30 - (time.perf_counter() - started)
                ready = left > 0 and sel.select(left)
                chunk = os.read(proc.stdout.fileno(), 4096) if ready else b""
                if not chunk:
                    self.kill_daemon(proc)
                    raise SystemExit("error: gcs serve exited or did not listen within 30 s")
                head += chunk
        addr = head.partition(b"listening on ")[2].split()[0].decode()
        while time.perf_counter() - started < 30:
            try:
                if self.http(addr, "GET", "/stats")[0] == 200:
                    return proc, addr, time.perf_counter() - started
            except OSError:
                pass
        self.kill_daemon(proc)
        raise SystemExit("error: gcs serve did not answer /stats within 30 s")

    def kill_daemon(self, proc):
        proc.kill()
        self.reap(proc)
        proc.stdout.close()

    def stop_daemon(self, proc, addr):
        try:
            self.http(addr, "POST", "/v1/shutdown")
        except OSError:
            proc.kill()
        result = self.reap(proc)
        proc.stdout.close()
        return result

    def serve_mixed(self):
        clients = min(2, self.nproc)
        load_seconds = (1 - SETUP_SHARE) * self.seconds
        # At most 250 fresh specs per run (~150 KiB each cached, blame
        # window included) keep the working set inside the default 64 MiB
        # cache; at most 25 a second keep hot requests the majority.
        cold_rate = min(25.0, 250.0 / load_seconds)
        self.provenance = {"clients": clients, "connections": clients, "daemon_workers": 1,
                           "cold_rate_per_s": cold_rate, "loop": "closed"}
        setup = []
        started = time.perf_counter()
        while (len(setup) < MIN_SETUP_REPS
               or (time.perf_counter() - started < SETUP_SHARE * self.seconds
                   and len(setup) < MAX_DAEMON_LAUNCHES)):
            proc, addr, ready = self.start_daemon("daemon-setup")
            code, _ = self.stop_daemon(proc, addr)
            self.tally.record(code == 0, f"daemon exit {code}")
            setup.append(ready)
        self.provenance["setup_reps"] = len(setup)
        proc, addr, ready = self.start_daemon("daemon")
        try:
            status, body = self.http(addr, "POST", "/v1/jobs?kind=run&wait=1",
                                     SERVE_CANARY_SPEC.encode())
            self.tally.record(status == 200, f"canary status {status}")
            self.check_golden({"body_sha256": bl.sha256(body)})
            load = self.tool_json(["loadgen", "--addr", addr, "--seed", str(self.seed),
                                     "--seconds", str(load_seconds), "--clients", str(clients),
                                     "--cold-rate", str(cold_rate)], "loadgen")
            status, body = self.http(addr, "GET", "/stats")
            stats = json.loads(body) if status == 200 else {}
        finally:
            code, rss = self.stop_daemon(proc, addr)
        self.tally.record(code == 0, f"daemon exit {code}")
        self.tally.add(load["attempted"], bl.serve_failures(load), load["errors"])
        hot, cold = load["hot"]["total_ms"], load["cold"]["total_ms"]
        e2e = {
            "setup_s": bl.median(setup),
            # Simulated events per second of client-observed cold latency.
            "sim_events_per_s": bl.median(
                [e / (ms / 1e3) for e, ms in zip(load["cold"]["events"], cold)]),
            "op_p50_ms": bl.median(hot + cold),
            "peak_rss_mib": rss,
        }
        self.provenance.update({"hot_samples": len(hot), "cold_samples": len(cold)})
        if not self.trace:
            return e2e
        inproc = self.tool_json(["serve-layers", "--seed", str(self.seed), "--dump-dir",
                                   str(self.work / "dumps")])
        return self.serve_layers(load, stats, inproc)

    # -- per-layer metrics ----------------------------------------------

    LAYERS = ("graph", "sim", "core", "analysis", "adversary", "sweep", "serve")
    PROTOS = ("aopt", "mingap", "envelope", "jump")

    def layer_times(self, spans):
        """Seconds per crate from the span table; `sim` is run_until's self
        time (queue, clock arithmetic, snapshot-vector build) plus engine
        construction, the recorder and the base delay model."""
        s = {k: v["secs"] for k, v in spans.items()}
        protos = sum(s[f"proto_{p}"] for p in self.PROTOS)
        observers = s["skew_observer"] + s["metrics_sink"] + s["watchdog"] + s["watchdog_record"]
        top_delay = s["chaos_delay"] if spans["chaos_delay"]["calls"] else s["delay"]
        sim_self = s["sim_run"] - protos - observers - s["recorder"] - top_delay
        chaos_self = s["chaos_delay"] - s["delay"] if spans["chaos_delay"]["calls"] else 0.0
        return {
            "graph": s["graph_build"],
            "sim": sim_self + s["engine_build"] + s["recorder"] + s["delay"],
            "core": protos,
            "analysis": observers + s["watchdog_new"] + s["observers_new"],
            "adversary": chaos_self + s["chaos_setup"],
            "sweep": s["sweep_build"],
            "serve": 0.0,
        }, sim_self

    def base_layers(self, ref, spans, runs, sim_self):
        """Per-layer metrics shared by the simulation workloads. `runs` is
        how many executions the spans cover; `ref` holds one execution's
        (or one sweep's) exact counts."""
        events = ref["events"] * runs
        calls = lambda k: spans[k]["calls"]  # noqa: E731
        per = lambda k, n: spans[k]["secs"] * 1e9 / n if n else 0.0  # noqa: E731
        chaos_calls = calls("chaos_delay")
        m = {
            "sim.ns_per_event": per("sim_run", events),
            "sim.self_ns_per_event": sim_self * 1e9 / events,
            "sim.events": ref["events"],
            "sim.stale_share": ref["stale"] / ref["events"],
            "sim.snapshots_per_event": ref["snapshots"] / ref["events"],
            "sim.recorder_ns_per_event": per("recorder", events),
            "sim.delay_ns_per_sample": per("delay", calls("delay")),
            "core.protocol_calls": ref["protocol_calls"],
            "core.sends": ref["send_events"],
            "core.deliveries": ref["deliveries"],
            "analysis.skew_observer_ns_per_snapshot": per("skew_observer", calls("skew_observer")),
            "analysis.metrics_sink_ns_per_event": per("metrics_sink", events),
            "analysis.watchdog_ns_per_snapshot": per("watchdog", calls("watchdog")),
            "analysis.watchdog_new_s": per("watchdog_new", calls("watchdog_new")) / 1e9,
            "adversary.chaos_delay_ns_per_sample":
                (spans["chaos_delay"]["secs"] - spans["delay"]["secs"]) * 1e9 / chaos_calls
                if chaos_calls else 0.0,
            "adversary.dropped": ref["dropped_faults"],
            "adversary.duplicated": ref["duplicated"],
            "graph.build_s": per("graph_build", calls("graph_build")) / 1e9,
        }
        for p in self.PROTOS:
            m[f"core.protocol_ns_per_call.{p}"] = per(f"proto_{p}", calls(f"proto_{p}"))
        return m

    def finish_layers(self, metrics, times, total, overhead):
        """Adds layer shares and, where a traced total and an untraced
        comparison exist (`total`, `overhead` not None), the accounting
        check and the tracing overhead; otherwise those two read 0."""
        accounted = sum(times.values())
        for layer in self.LAYERS:
            metrics[f"share.{layer}"] = times[layer] / accounted if accounted else 0.0
        metrics["trace.accounted_share"] = accounted / total if total else 0.0
        if total:
            self.tally.record(abs(1 - accounted / total) <= ACCOUNTING_BOUND,
                              f"layer times account for {accounted / total:.3f} of the traced time")
        metrics["trace.overhead"] = overhead or 0.0
        metrics["fail_share"] = self.tally.fail_share()
        for name in self.per_layer_names:
            metrics.setdefault(name, 0.0)
        return metrics

    def sim_layers(self, traced):
        ref, spans = traced["reference"], traced["spans"]
        for problem in bl.fidelity_problems(ref, traced["traced"]):
            self.tally.record(False, problem)
        times, sim_self = self.layer_times(spans)
        m = self.base_layers(ref, spans, traced["reps"], sim_self)
        self.provenance["traced_reps"] = traced["reps"]
        return self.finish_layers(m, times, traced["traced_wall_s"],
                                  traced["traced_wall_s"] / traced["untraced_wall_s"])

    def sweep_layers(self, traced):
        ref, spans = traced["reference"], traced["spans"]
        times, sim_self = self.layer_times(spans)
        times["sweep"] += traced["plan_s"] + traced["row_render_s"]
        reps = traced["reps"]
        m = self.base_layers(ref, spans, reps, sim_self)
        job_s = traced["job_s"]
        m.update({
            "sweep.plan_s": traced["plan_s"] / reps,
            "sweep.job_s.p50": bl.median(job_s),
            "sweep.job_s.p99": bl.percentile(job_s, 99),
            "sweep.pool_idle_share": 1 - traced["busy_s"] / (traced["workers"] * traced["pool_wall_s"]),
            "sweep.row_render_ns": traced["row_render_s"] * 1e9 / traced["rows"],
        })
        total = traced["busy_s"] + traced["plan_s"] + traced["row_render_s"]
        self.provenance.update({"traced_reps": reps, "job_samples": len(job_s)})
        return self.finish_layers(m, times, total,
                                  traced["traced_wall_s"] / traced["untraced_wall_s"])

    def serve_layers(self, load, stats, inproc):
        hot, cold = load["hot"], load["cold"]
        hot_p50 = bl.median(hot["total_ms"])
        cold_p50 = bl.median(cold["total_ms"])
        cold_exec = bl.median(inproc["cold_exec_ms"])
        submit_hot_us = bl.median(inproc["submit_hot_us"])
        hits = stats.get("cache_hits", 0)
        m = {
            "serve.hot_p50_ms": hot_p50,
            "serve.hot_p99_ms": bl.percentile(hot["total_ms"], 99),
            "serve.cold_p50_ms": cold_p50,
            "serve.cold_p90_ms": bl.percentile(cold["total_ms"], 90),
            "serve.hot_samples": len(hot["total_ms"]),
            "serve.jobs_per_s": bl.window_rate(hot["done_s"] + cold["done_s"], load["wall_s"]),
            "serve.cold_samples": len(cold["total_ms"]),
            "serve.wire_parse_us": inproc["wire_parse_us"],
            "serve.submit_hot_us": submit_hot_us,
            "serve.http_overhead_us": hot_p50 * 1e3 - submit_hot_us,
            "serve.cold_exec_ms": cold_exec,
            "serve.cold_queue_ms": cold_p50 - cold_exec,
            "serve.cache_hit_ratio": hits / max(len(hot["total_ms"]), 1),
            "serve.rejected": load["rejected"],
        }
        for kind, spans in (("hot", hot), ("cold", cold)):
            for part in ("connect_ms", "ttfb_ms", "body_ms"):
                m[f"serve.{kind}.{part}"] = bl.median(spans[part])
        # Client time splits into the daemon's sweep worker executing cold
        # jobs and everything else the serve crate does.
        total_ms = sum(hot["total_ms"]) + sum(cold["total_ms"])
        exec_ms = min(len(cold["total_ms"]) * cold_exec, total_ms)
        times = {layer: 0.0 for layer in self.LAYERS}
        times["sweep"] = exec_ms
        times["serve"] = total_ms - exec_ms
        # The serve split is a difference, so it accounts for the client
        # time by construction, and the load run is the same in both modes:
        # neither the accounting nor a tracing overhead is measured here.
        return self.finish_layers(m, times, None, None)


def main():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(why))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for all outputs")
    parser.add_argument("--record-golden", action="store_true",
                        help=f"record the canary's results in {GOLDEN.name} and exit")
    args = parser.parse_args()
    if args.record_golden:
        args.seed, args.seconds = CANARY_SEED, 1.0
    elif args.seed is None or args.seconds is None:
        parser.error("--seed and --seconds are required")

    bench = Bench(args)
    bench.per_layer_names = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    bench.build()
    log(f"perfbench: {args.workload} seed {args.seed} — {why[args.workload]}")
    metrics = getattr(bench, args.workload)()
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n in wanted if n not in metrics]
    if missing:
        raise SystemExit(f"error: metrics not measured: {missing}")
    result = {
        "correct": bench.tally.failed == 0,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in wanted},
    }
    provenance = {
        "workload": args.workload, "why": why[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "nproc": bench.nproc,
        **bench.provenance, "problems": bench.tally.problems[:20],
        "all_metrics": metrics,
    }
    (bench.out / "result.json").write_text(json.dumps({**result, "provenance": provenance},
                                                      indent=1, ensure_ascii=False) + "\n")
    for name in wanted:
        print(f"{name:48s} {metrics[name]:>16.6g} {units[name]}")
    for problem in bench.tally.problems[:20]:
        log(f"problem: {problem}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
