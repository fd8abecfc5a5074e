#!/usr/bin/env python3
"""Repository benchmark: figures, maritime-live and ais-flood.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds bin/rtec_cli.exe and perfbench/harness.exe with dune, generates
the workload's inputs from --seed, checks every output against a
reference, and prints one JSON object as the last line of stdout:
end-to-end metrics with --trace 0, the per-layer ladder with --trace 1.
See perfbench/README.md for the workloads, metrics and sizing.
"""

import argparse
import json
import os
import socket
import statistics
import subprocess
import sys
import time

HARNESS = os.path.join("_build", "default", "perfbench", "harness.exe")
RTEC = os.path.join("_build", "default", "bin", "rtec_cli.exe")
WORK = os.path.join("perfbench", "_work")
REF = os.path.join("perfbench", "ref")

# Sizing, measured at the commit that defined the benchmark on a 2-core
# VM (see README.md). Closed loops do fixed work derived from --seconds.
SETUPS = 3  # set-ups per run; setup_s is their median
FIG_ROUNDS_PER_S = 3.2  # figures rounds per second of --seconds (>= 21)
FIG_TRACED_ROUNDS = 5  # traced + untimed rounds in a --trace 1 run
FLOOD_EVENTS_PER_S = 40_000  # ais-flood events per second of --seconds
LIVE_SESSIONS_PER_S = 0.25  # maritime-live sessions per second of --seconds (>= 2)
COVER_TOLERANCE = (0.90, 1.01)  # trace.cover must fall in this range
MIN_BEYOND = 10  # samples a reported percentile needs beyond it
REPLY_TIMEOUT_S = 30.0  # longest wait for a tick's or the final emission

# The per-layer metrics every --trace 1 run prints, in BENCHMARK.json's
# order. A layer a workload never calls reads 0.
LAYERS = {
    "io.decode_ns_per_line": "ns",
    "io.codec_fast_ratio": "ratio",
    "service.ingest_ns_per_event": "ns",
    "service.appends": "count",
    "service.tick_busy_p50_ms": "ms",
    "service.tick_busy_p90_ms": "ms",
    "service.tick_busy_s": "s",
    "service.queries": "count",
    "service.revisions": "count",
    "service.late_events": "count",
    "service.dropped_late": "count",
    "service.buckets": "count",
    "emit.ms_per_tick": "ms",
    "emit.bytes_per_tick": "bytes",
    "emit.final_ms": "ms",
    "service.drain_ms": "ms",
    "serve.queue_depth_hwm": "count",
    "serve.ingest_blocked": "count",
    "serve.tick_rtt_p50_ms": "ms",
    "serve.tick_rtt_p90_ms": "ms",
    "dataset.generate_ms": "ms",
    "recognition.detect_ms": "ms",
    "recognition.events_per_s": "events/s",
    "engine.compiled_hit_ratio": "ratio",
    "session.run_ms": "ms",
    "backend.calls": "count",
    "similarity.table_ms": "ms",
    "similarity.rule_cache_hit_ratio": "ratio",
    "assignment.km_calls": "count",
    "assignment.km_iterations_per_call": "count",
    "correction.correct_top_ms": "ms",
    "report.ms": "ms",
    "trace.cover": "ratio",
    "trace.overhead": "ratio",
}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def die(msg, code=2):
    log(msg)
    sys.exit(code)


def build():
    for path in ("dune-project", os.path.join("bin", "rtec_cli.ml"), "lib"):
        if not os.path.exists(path):
            die("not a checkout of the repository (missing %s)" % path)
    cmd = ["dune", "build", "--root", ".", "./perfbench/harness.exe", "./bin/rtec_cli.exe"]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        die("build failed")


def harness(*args):
    r = subprocess.run([HARNESS, *args], stdout=subprocess.PIPE, timeout=170)
    if r.returncode != 0:
        die("harness %s failed" % args[0])
    return json.loads(r.stdout.decode().strip().splitlines()[-1])


# --- statistics ---


def percentile(samples, p, name):
    """The p-th percentile, refusing to report one that fewer than
    MIN_BEYOND samples lie beyond."""
    if p == 50:
        value = statistics.median(samples)
    else:
        value = statistics.quantiles(samples, n=100, method="exclusive")[p - 1]
    beyond = sum(1 for x in samples if x > value)
    if beyond < MIN_BEYOND:
        die("%s: p%d has only %d of %d samples beyond it" % (name, p, beyond, len(samples)), 3)
    return value


def metric(value, unit):
    return {"value": value, "unit": unit}


def result(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def end_to_end(correct, attempted, failed, setup_times, wall_s, events, heap_mb):
    result(
        correct,
        attempted,
        failed,
        {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "wall_s": metric(wall_s, "s"),
            "events_per_s": metric(events / wall_s, "events/s"),
            "heap_peak_mb": metric(heap_mb, "MB"),
        },
    )


# --- serve sessions ---


def free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def read_lines(path):
    with open(path) as f:
        return [l for l in f.read().split("\n") if l]


SERVERS = []  # every server spawned, stopped on the way out


def spawn_server(ed, serve_args, extra=()):
    """Start `rtec_cli serve --listen` and connect the one client; returns
    (process, socket) once the server accepts."""
    for _ in range(3):
        port = free_port()
        proc = subprocess.Popen(
            [RTEC, "serve", ed, *serve_args, "--listen", str(port), *extra],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        SERVERS.append(proc)
        deadline = time.monotonic() + 30
        while proc.poll() is None and time.monotonic() < deadline:
            try:
                sock = socket.create_connection(("127.0.0.1", port), timeout=1)
            except OSError:
                time.sleep(0.002)
                continue
            sock.settimeout(REPLY_TIMEOUT_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return proc, sock
        stop(proc)
    die("rtec_cli serve never accepted a connection")


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def reap(proc):
    """Wait for a server that is exiting on its own; returns its peak
    resident set in MiB (ru_maxrss, the kernel's VmHWM at exit)."""
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss / 1024.0
        time.sleep(0.001)
    stop(proc)
    die("rtec_cli serve did not exit after its final emission")


def recv_until(sock, buf, size):
    """Append what the server sends to [buf] until it holds [size] bytes
    (None: until the server hangs up). False if it hung up or went
    silent for REPLY_TIMEOUT_S first."""
    try:
        while size is None or len(buf) < size:
            # Acknowledge at once: a delayed ACK would hold back the tail
            # of an emission that the server's Nagle algorithm keeps until
            # its earlier segments are acknowledged.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
            data = sock.recv(1 << 20)
            if not data:
                return size is None
            buf += data
    except OSError:
        return False
    return True


def setups(setup, t_start, teardown=None):
    """Run the workload's set-up SETUPS times, each from scratch, undoing
    the previous one untimed. The first is timed from benchmark start.
    Returns (seconds per set-up, the last set-up's result)."""
    times, last = [], None
    for i in range(SETUPS):
        if teardown and last is not None:
            teardown(last)
        t0 = t_start if i == 0 else time.perf_counter()
        last = setup()
        times.append(time.perf_counter() - t0)
    return times, last


def serve_setups(prepare, files, t_start):
    """Set-ups of a serve workload: input generation and references, then
    one server spawn until it accepts. Returns (seconds per set-up,
    prepare output, (proc, sock))."""

    def setup():
        return prepare(), spawn_server(files["ed"], read_lines(files["cfg"]))

    def teardown(last):
        proc, sock = last[1]
        sock.close()
        stop(proc)

    times, (info, server) = setups(setup, t_start, teardown)
    return times, info, server


# --- maritime-live ---


def live_files():
    f = lambda n: os.path.join(WORK, "live." + n)
    return {n: f(n) for n in ("ed", "sched", "ref", "idx", "final", "cfg")}


class Schedule:
    """The line sequence, cut into steps that each end with a tick, and
    the references the emissions are checked against."""

    def __init__(self, files):
        lines = [(line + "\n").encode() for line in read_lines(files["sched"])]
        ticks = [i for i, line in enumerate(lines) if line.startswith(b"tick(")]
        cuts = [0] + [i + 1 for i in ticks] + [len(lines)]
        self.steps = [b"".join(lines[a:b]) for a, b in zip(cuts, cuts[1:])]
        self.events = len(lines) - len(ticks)
        self.ends = [int(x) for x in read_lines(files["idx"])]
        with open(files["ref"], "rb") as f:
            self.reference = f.read()
        self.final = read_lines(files["final"])


def live_session(sched, proc, sock):
    """Drive one closed-loop session: send a step's lines and its tick,
    wait for that tick's complete emission, send the next step. After
    the last tick, send the rest, half-close and wait for the final
    emission. Returns the session's measurements and checks."""
    got, rtt, ok = bytearray(), [], True
    t0 = time.perf_counter()
    for k, step in enumerate(sched.steps[:-1]):
        t = time.perf_counter()
        try:
            sock.sendall(step)
        except OSError:
            ok = False
        ok = ok and recv_until(sock, got, sched.ends[k])
        if not ok:
            break
        rtt.append((time.perf_counter() - t) * 1e3)
    if ok:
        try:
            sock.sendall(sched.steps[-1])
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            ok = False
        ok = ok and recv_until(sock, got, None)
    wall = time.perf_counter() - t0
    if not ok:
        stop(proc)
    heap_mb = reap(proc)
    # A tick passes if its emission arrived and equals the replay's.
    got, ref, ends = bytes(got), sched.reference, sched.ends
    starts = [0] + ends[:-1]
    failed = sum(1 for a, b in zip(starts, ends[:-1]) if got[a:b] != ref[a:b])
    final = [l for l in got[starts[-1]:].decode(errors="replace").split("\n") if l and not l.startswith("%")]
    failed += 0 if ok and final == sched.final and proc.returncode == 0 else 1
    return {
        "wall_s": wall,
        "events": sched.events,
        "rtt_ms": rtt,
        "attempted": len(ends),
        "failed": failed,
        "heap_mb": heap_mb,
    }


def live(seed, seconds, trace, t_start):
    os.makedirs(WORK, exist_ok=True)
    files = live_files()
    prepare = lambda: harness("prepare-live", "--seed", str(seed), "--dir", WORK)
    if trace:
        session = lambda info, proc, sock: live_session(Schedule(files), proc, sock)
        return serve_trace(files, prepare, "trace-live", session)
    times, _, server = serve_setups(prepare, files, t_start)
    sched = Schedule(files)
    # Later sessions get a fresh server each, spawned outside set-up and
    # outside the timed sessions.
    runs = [live_session(sched, *server)]
    for _ in range(max(2, round(LIVE_SESSIONS_PER_S * seconds)) - 1):
        runs.append(live_session(sched, *spawn_server(files["ed"], read_lines(files["cfg"]))))
    failed = sum(r["failed"] for r in runs)
    end_to_end(
        failed == 0,
        sum(r["attempted"] for r in runs),
        failed,
        times,
        sum(r["wall_s"] for r in runs),
        sum(r["events"] for r in runs),
        max(r["heap_mb"] for r in runs),
    )


# --- ais-flood ---


def flood_files():
    f = lambda n: os.path.join(WORK, "flood." + n)
    return {n: f(n) for n in ("ed", "stream", "ref", "cfg")}


def flood_session(files, info, proc, sock):
    """Write the whole stream as fast as TCP takes it, half-close, and
    wait for the one final emission (--emit final sends nothing before)."""
    with open(files["stream"], "rb") as f:
        payload = f.read()
    got = bytearray()
    t0 = time.perf_counter()
    try:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        ok = recv_until(sock, got, None)
    except OSError:
        ok = False
    wall = time.perf_counter() - t0
    if not ok:
        stop(proc)
    heap_mb = reap(proc)
    lines = [l for l in bytes(got).decode(errors="replace").split("\n") if l and not l.startswith("%")]
    ok = ok and proc.returncode == 0 and lines == read_lines(files["ref"])
    return {
        "wall_s": wall,
        "events": int(info["events"]),
        "rtt_ms": [],
        "attempted": 1,
        "failed": 0 if ok else 1,
        "heap_mb": heap_mb,
    }


def flood(seed, seconds, trace, t_start):
    os.makedirs(WORK, exist_ok=True)
    files = flood_files()
    events = FLOOD_EVENTS_PER_S * seconds
    prepare = lambda: harness("prepare-flood", "--seed", str(seed), "--dir", WORK, "--events", str(events))
    if trace:
        session = lambda info, proc, sock: flood_session(files, info, proc, sock)
        return serve_trace(files, prepare, "trace-flood", session)
    times, info, (proc, sock) = serve_setups(prepare, files, t_start)
    s = flood_session(files, info, proc, sock)
    end_to_end(s["failed"] == 0, 1, s["failed"], times, s["wall_s"], s["events"], s["heap_mb"])


# --- traced runs: the per-layer ladder ---


def cover_ok(cover):
    lo, hi = COVER_TOLERANCE
    if not lo <= cover <= hi:
        log("trace.cover %.3f outside [%.2f, %.2f]: the layers do not add up" % (cover, lo, hi))
        return False
    return True


def ladder(correct, attempted, failed, d, extra=None):
    """Print every layer metric: those the harness measured in [d], then
    [extra] (name -> value), and the tracing overhead (median traced lap
    over median untimed lap); 0 for a layer the workload never calls."""
    values = {name: d[name] for name in LAYERS if name in d}
    values.update(extra or {})
    values["trace.overhead"] = statistics.median(d["traced_wall_s"]) / statistics.median(d["plain_wall_s"])
    correct = correct and cover_ok(d["trace.cover"])
    result(correct, attempted, failed, {n: metric(values.get(n, 0), u) for n, u in LAYERS.items()})


def serve_trace(files, prepare, replay_cmd, session):
    info = prepare()
    d = harness(replay_cmd, "--dir", WORK)
    # The served path, traced from inside by its own metrics snapshot.
    metrics_file = os.path.join(WORK, "serve-metrics.json")
    if os.path.exists(metrics_file):
        os.remove(metrics_file)
    proc, sock = spawn_server(files["ed"], read_lines(files["cfg"]), ("--metrics", metrics_file))
    s = session(info, proc, sock)
    with open(metrics_file) as f:
        snap = json.load(f)
    extra = {
        "serve.queue_depth_hwm": snap["gauges"]["service.ingest_queue.depth_hwm"],
        "serve.ingest_blocked": snap["counters"].get("service.ingest.blocked", 0),
    }
    # Tick percentiles where ticks emit (maritime-live); ais-flood's few
    # hourly ticks emit nothing and are too few for a percentile.
    if s["rtt_ms"]:
        busy = d["tick_busy_ms"]
        extra["service.tick_busy_p50_ms"] = percentile(busy, 50, "tick busy")
        extra["service.tick_busy_p90_ms"] = percentile(busy, 90, "tick busy")
        extra["serve.tick_rtt_p50_ms"] = percentile(s["rtt_ms"], 50, "tick round trip")
        extra["serve.tick_rtt_p90_ms"] = percentile(s["rtt_ms"], 90, "tick round trip")
    failed = int(d["failed"]) + s["failed"]
    ladder(failed == 0, int(d["attempted"]) + s["attempted"], failed, d, extra)


# --- figures ---


def figures(seed, seconds, trace, t_start):
    os.makedirs(WORK, exist_ok=True)
    reference = os.path.join(WORK, "figures.ref")
    # The set-up is a fresh process, as a researcher's run starts with
    # empty memos: it computes the expected text of a round.
    prepare = lambda: harness("figures-reference", "--seed", str(seed), "--ref", REF, "--out", reference)
    common = ["figures", "--seed", str(seed), "--reference", reference]
    if trace:
        prepare()
        d = harness(*common, "--rounds", str(FIG_TRACED_ROUNDS), "--traced")
        failed = int(d["failed"])
        return ladder(failed == 0, int(d["attempted"]), failed, d)
    times, _ = setups(prepare, t_start)
    rounds = max(21, round(FIG_ROUNDS_PER_S * seconds))
    d = harness(*common, "--rounds", str(rounds))
    failed = int(d["failed"])
    end_to_end(failed == 0, int(d["attempted"]), failed, times, d["wall_s"], d["events"], d["heap_peak_mb"])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["figures", "maritime-live", "ais-flood"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    build()
    t_start = time.perf_counter()
    try:
        if a.workload == "figures":
            figures(a.seed, a.seconds, a.trace, t_start)
        elif a.workload == "maritime-live":
            live(a.seed, a.seconds, a.trace, t_start)
        else:
            flood(a.seed, a.seconds, a.trace, t_start)
    finally:
        for proc in SERVERS:
            stop(proc)


if __name__ == "__main__":
    main()
