#!/usr/bin/env python3
"""The HOPI benchmark: build, hot/cold/sharded reads and live maintenance.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 25 --trace 0

It builds `hopi` and the benchmark's load generator `pb` from source (dune, build
directory `.bench_build/`), writes a DBLP-like corpus, builds the
store with `hopi build` (or `hopi shard-split`), serves it with
`hopi serve --socket` and drives it from `pb`, a separate process with at
most two connections.  Every answer is checked against an oracle that
never touches the index.  With `--trace 0` the last stdout line is the
end-to-end result; with `--trace 1` the server also exports its metrics
and `pb trace` replays the same inputs through each layer in-process
(per-layer result, span file under `.bench_build/perfbench/`).

See perfbench/NOTES.md for the workloads, the metrics and the baseline.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
DUNE_BUILD = os.path.join(ROOT, ".bench_build", "dune")
HOPI = os.path.join(DUNE_BUILD, "default", "bin", "hopi_cli.exe")
PB = os.path.join(DUNE_BUILD, "default", "perfbench", "pb.exe")

JOBS = max(1, min(2, len(os.sched_getaffinity(0))))  # the load generator uses at most 2
MIN_ROUNDS = 3  # set-up + closed-loop rounds per untraced run, at the least
OPEN_SHARE = 0.1  # of --seconds, for each open-loop rate (first round only)
HELD_OUT_SEED = 7919  # never used while tuning; confirms later claims
# The corpus (and the live-churn maintenance stream) is the same in every
# run: build time, store size and maintenance cost swing by up to 2x
# between DBLP-like corpora of these sizes, which no bound could absorb.
# --seed draws the request streams.
CORPUS_SEED = 20050405  # the Dblp_gen default

# Workload parameters.  The open-loop rates (frames per second) were set
# once at about 25% and 35% of each workload's closed-loop capacity on
# the commit that introduced the benchmark (2 vCPUs), and are frozen.
# [slice]: seconds of closed loop per round.
WORKLOADS = {
    "read-hot": dict(kind="single", mix="hot", docs=200, batch=64, frames=128, slice=1.0,
                     cache_mb=64, pool_pages=4096, lo=900.0, hi=1250.0),
    "read-cold": dict(kind="single", mix="cold", docs=200, batch=20, frames=512, slice=1.0,
                      cache_mb=0, pool_pages=32, lo=35.0, hi=48.0),
    "read-sharded": dict(kind="shard", mix="hot", docs=200, batch=64, frames=512, slice=1.0,
                         cache_mb=64, pool_pages=4096, shards=4, lo=24.0, hi=34.0),
    "live-churn": dict(kind="live", mix="live", docs=30, batch=64, frames=32, slice=0.5,
                       cache_mb=64, pool_pages=4096, groups=300, writer_every=128,
                       lo=900.0, hi=1250.0),
}

END_TO_END = [
    ("setup_s", "s"), ("build_cpu_s", "s"), ("build_rss_mb", "MB"), ("store_mb", "MB"),
    ("read_cpu_us", "us"), ("serve_rss_mb", "MB"),
]
# The gated times are CPU times (see NOTES.md): on a 2-vCPU VM whose
# hypervisor steals a quarter of the time or more, in bursts, wall-clock
# set-up and build time, throughput and open-loop latencies swing by a
# third or more between runs.  They are reported on every run and gated
# by none, as is error_frac, which is 0.
REPORT_ONLY = [
    ("setup_wall_s", "s"), ("build_s", "s"), ("read_qps", "1/s"),
    ("read_p50_ms_lo", "ms"), ("read_p50_ms_hi", "ms"),
    ("read_p99_ms_lo", "ms"), ("read_p99_ms_hi", "ms"),
    ("error_frac", "fraction"), ("update_visible_p50_ms", "ms"),
    ("update_visible_p90_ms", "ms"), ("update_ops_s", "1/s"),
]


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(code)


# {1 Processes}

class Timeout(Exception):
    pass


def on_alarm(*_):
    raise Timeout()


class Proc:
    """A child process whose peak RSS is read with wait4 when it ends."""

    def __init__(self, cmd, cwd, out, err):
        self.t0 = time.monotonic()
        self.stdout = open(out, "wb")
        self.stderr = open(err, "wb")
        self.p = subprocess.Popen(cmd, cwd=cwd, stdout=self.stdout, stderr=self.stderr,
                                  stdin=subprocess.DEVNULL)
        self.wall = None
        self.rss_mb = None
        self.status = None

    def wait(self, timeout):
        # a blocking wait4 under an alarm: no polling wakes a core while
        # the child runs, and the wall time ends when the child does
        old = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, ru = os.wait4(self.p.pid, 0)
            self.wall = time.monotonic() - self.t0
        except Timeout:
            self.kill()
            raise RuntimeError("timed out: " + " ".join(self.p.args[:3]))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        self.rss_mb = ru.ru_maxrss / 1024.0
        self.cpu = ru.ru_utime + ru.ru_stime
        self.status = os.waitstatus_to_exitcode(status)
        self.p.returncode = self.status
        self.stdout.close()
        self.stderr.close()
        return self.status

    def kill(self):
        if self.status is None:
            self.p.kill()
            os.wait4(self.p.pid, 0)
            self.status = -9
            self.p.returncode = -9
            self.stdout.close()
            self.stderr.close()


def cpu_s(pid):
    """User plus system CPU seconds of a live process (/proc/PID/stat)."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def run(cmd, cwd, name, timeout=150):
    p = Proc(cmd, cwd, os.path.join(cwd, name + ".out"), os.path.join(cwd, name + ".err"))
    try:
        status = p.wait(timeout)
    except BaseException:
        p.kill()
        raise
    if status != 0:
        with open(os.path.join(cwd, name + ".err"), "rb") as f:
            tail = f.read()[-2000:].decode(errors="replace")
        raise RuntimeError("%s failed (exit %s): %s" % (name, p.status, tail))
    return p


def run_json(cmd, cwd, name, timeout=150):
    run(cmd, cwd, name, timeout)
    with open(os.path.join(cwd, name + ".out")) as f:
        return json.loads(f.read().strip().splitlines()[-1])


def frame_control(sock_path, cmd, timeout=30.0):
    """Send one control frame ([len][kind][id][payload]) and return the reply text."""
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(timeout)
    try:
        s.connect(sock_path)
        payload = cmd.encode()
        s.sendall(struct.pack(">IcI", 5 + len(payload), b"C", 1) + payload)
        head = b""
        while len(head) < 4:
            chunk = s.recv(4 - len(head))
            if not chunk:
                return None
            head += chunk
        (n,) = struct.unpack(">I", head)
        body = b""
        while len(body) < n:
            chunk = s.recv(n - len(body))
            if not chunk:
                break
            body += chunk
        return body[9:].decode(errors="replace")
    finally:
        s.close()


class Server:
    def __init__(self, args, cwd, sock="s.sock"):
        # the socket path stays relative to the run directory, the current
        # directory while a workload runs: long checkout paths stay legal
        self.sock = sock
        if os.path.exists(sock):
            os.unlink(sock)
        self.proc = Proc([HOPI, "serve"] + args + ["--socket", sock], cwd,
                         os.path.join(cwd, "serve.out"), os.path.join(cwd, "serve.err"))
        deadline = time.monotonic() + 120
        while True:
            if self.proc.p.poll() is not None:
                raise RuntimeError("server exited during start-up")
            try:
                c = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                c.connect(sock)
                c.close()
                break
            except OSError:
                c.close()
                if time.monotonic() > deadline:
                    raise RuntimeError("server did not start listening")
                time.sleep(0.002)
        self.start_s = time.monotonic() - self.proc.t0

    def stop(self):
        try:
            frame_control(self.sock, "quit")
        except OSError:
            self.proc.p.terminate()
        self.proc.wait(60)
        return self.proc.rss_mb


# {1 Build}

def build_programs():
    for need in ("dune-project", "bin/hopi_cli.ml", "lib", "perfbench/pb.ml"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("run from the root of a HOPI source checkout (missing %s)" % need, 2)
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    os.makedirs(os.path.dirname(DUNE_BUILD), exist_ok=True)
    r = subprocess.run(cmd + ["build", "--root", ROOT, "--build-dir", DUNE_BUILD,
                              "--display", "quiet", "./bin/hopi_cli.exe", "./perfbench/pb.exe"],
                       cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=850)
    if r.returncode != 0:
        fail("build failed:\n" + r.stdout.decode(errors="replace")[-4000:])


# {1 Stamps}

def source_stamp():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.decode().strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune", ".py")):
                    with open(os.path.join(d, f), "rb") as fh:
                        h.update(f.encode() + fh.read())
    return "no git checkout; source sha256 " + h.hexdigest()[:16]


def ocaml_version():
    try:
        return subprocess.run(["ocamlfind", "ocamlopt", "-version"], capture_output=True,
                              timeout=10).stdout.decode().strip() or "unknown"
    except OSError:
        return "unknown"


# {1 Workloads}

def du_mb(paths):
    total = 0
    for p in paths:
        if os.path.isdir(p):
            for d, _, files in os.walk(p):
                total += sum(os.path.getsize(os.path.join(d, f)) for f in files)
        elif os.path.exists(p):
            total += os.path.getsize(p)
    return total / (1024.0 * 1024.0)


def serve_args(w, store, metrics):
    # queues deep enough that a stall shows as latency, not as busy frames
    args = [store, "--jobs", str(JOBS), "--cache-mb", str(w["cache_mb"]),
            "--pool-pages", str(w["pool_pages"]), "--max-inflight", "2048",
            "--queue-depth", "1024"]
    if w["kind"] == "shard":
        args.append("--shard")
    if w["kind"] == "live":
        args += ["--live", "--corpus", "corpus"]
    if metrics:
        args += ["--metrics", metrics]
    return args


def setup_once(w, wd, metrics=None):
    """Write the store, start the server, warm up.  Returns the server and
    the set-up figures of this repetition."""
    for f in os.listdir(wd):
        if f.startswith(("s.db", "shards", "base.db")):
            p = os.path.join(wd, f)
            shutil.rmtree(p) if os.path.isdir(p) else os.unlink(p)
    if w["kind"] == "shard":
        store = "shards"
        b = run([HOPI, "shard-split", "corpus", "-k", str(w["shards"]), "--out", store], wd,
                "build")
    else:
        store = "base.db" if w["kind"] == "live" else "s.db"
        b = run([HOPI, "build", "corpus", "--store", store, "--jobs", str(JOBS)], wd, "build")
    srv = Server(serve_args(w, store, metrics), wd)
    conns = "1" if w["kind"] == "live" else "2"
    wu = run_json([PB, "warmup", "--socket", srv.sock, "--req", "req.bin", "--conns", conns], wd,
                  "warmup")
    # set-up cost in CPU seconds: the build (or split) process, then the
    # server through its start and the warm-up
    fig = dict(build_s=b.wall, build_cpu_s=b.cpu, build_rss_mb=b.rss_mb, start_s=srv.start_s,
               warmup_s=wu["warmup_s"], setup_s=b.cpu + cpu_s(srv.proc.p.pid),
               setup_wall_s=b.wall + srv.start_s + wu["warmup_s"],
               sent=wu["sent"], bad=wu["wrong"] + wu["failed"], wrong=wu["wrong"])
    return srv, fig


def run_workload(name, seed, seconds, trace):
    """Set up, load, stop, in rounds until [seconds] are spent (one round
    when traced).  Every round builds the store afresh, so build and
    read samples are spread over the whole run.  The first round also
    runs the open loop."""
    w = WORKLOADS[name]
    wd = os.path.join(OUT, "run-%s-%d-%d" % (name, seed, os.getpid()))
    shutil.rmtree(wd, ignore_errors=True)
    os.makedirs(wd)
    os.chdir(wd)
    srv = None
    try:
        run_json([PB, "corpus", "--seed", str(CORPUS_SEED), "--docs", str(w["docs"]), "--out",
                  "corpus"], wd, "corpus")
        prep = run_json([PB, "prepare", "--corpus", "corpus", "--mix", w["mix"], "--seed", str(seed),
                         "--docs", str(w["docs"]), "--batch", str(w["batch"]), "--frames",
                         str(w["frames"]), "--groups", str(w.get("groups", 0)), "--corpus-seed",
                         str(CORPUS_SEED), "--out", "req.bin"], wd, "prepare")
        metrics_file = "server-metrics.json" if trace else None
        t_end = time.monotonic() + seconds
        rounds = []
        while True:
            t0 = time.monotonic()
            srv, fig = setup_once(w, wd, metrics_file)
            # sized before the load: how many generations live-churn's
            # writer leaves behind depends on how many flips a round fits
            fig["store_mb"] = du_mb([os.path.join(wd, f) for f in os.listdir(wd)
                                     if f.startswith(("s.db", "shards", "base.db"))])
            load_cmd = [PB, "load", "--socket", srv.sock, "--req", "req.bin",
                        "--conns", "1" if w["kind"] == "live" else "2",
                        "--closed-s", str(w["slice"]),
                        "--open-s", str(OPEN_SHARE * seconds if not rounds else 0),
                        "--lo", str(w["lo"]), "--hi", str(w["hi"]),
                        "--server-pid", str(srv.proc.p.pid)]
            if w["kind"] == "live":
                load_cmd += ["--writer-socket", srv.sock, "--writer-every",
                             str(w["writer_every"])]
            if trace:
                load_cmd += ["--rt-s", "1.5"]
            fig["load"] = load = run_json(load_cmd, wd, "load", timeout=seconds + 60)
            fig["read_cpu_us"] = load["server_cpu_s"] * 1e6 / load["closed"]["queries"]
            fig["serve_rss_mb"] = srv.stop()
            srv = None
            rounds.append(fig)
            took = time.monotonic() - t0
            if trace or (len(rounds) >= MIN_ROUNDS and time.monotonic() + took > t_end):
                break
        res = dict(name=name, seed=seed, w=w, oracle_s=prep["oracle_s"], rounds=rounds,
                   load=rounds[0]["load"], store_mb=statistics.median(r["store_mb"] for r in rounds))
        if trace:
            res["server_metrics"] = json.load(open(os.path.join(wd, metrics_file)))
            os.makedirs(OUT, exist_ok=True)
            spans = os.path.join(OUT, "spans-%s-%d.json" % (name, seed))
            cmd = [PB, "trace", "--req", "req.bin", "--corpus", "corpus", "--jobs", str(JOBS),
                   "--cache-mb", str(w["cache_mb"]), "--pool-pages", str(w["pool_pages"]),
                   "--spans", spans]
            if w["kind"] == "shard":
                cmd += ["--shard", "shards"]
            elif w["kind"] == "live":
                cmd += ["--live", "trace-live.db", "--groups", "40"]
            else:
                cmd += ["--store", "s.db"]
            res["layers"] = run_json(cmd, wd, "trace", timeout=170 - seconds)
            res["spans"] = os.path.relpath(spans, ROOT)
        return res
    finally:
        if srv is not None:
            srv.proc.kill()
        os.chdir(ROOT)
        shutil.rmtree(wd, ignore_errors=True)


# {1 Results}

def tally(res):
    """(attempted, failed, wrong) over every request and update of the run."""
    att = bad = wrong = 0
    for r in res["rounds"]:
        att += r["sent"]
        bad += r["bad"]
        wrong += r["wrong"]
        load = r["load"]
        for ph in ("closed", "lo", "hi"):
            if ph in load:
                att += load[ph]["sent"]
                bad += load[ph]["failed"] + load[ph]["wrong"]
                wrong += load[ph]["wrong"]
        wr = load.get("writer")
        if wr:
            att += wr["attempted"]
            bad += wr["failed"]
    return att, bad, wrong


def end_to_end(res):
    """Medians over the run's rounds (read_qps: over its 0.5 s windows).
    The gated times are CPU times: the kernel keeps time stolen by the
    hypervisor out of them, while wall time takes it in full."""
    rounds = res["rounds"]
    med = lambda k: statistics.median(r[k] for r in rounds)
    load = res["load"]
    att, bad, _ = tally(res)
    m = dict(setup_s=med("setup_s"), build_cpu_s=med("build_cpu_s"),
             build_rss_mb=med("build_rss_mb"), store_mb=res["store_mb"],
             read_cpu_us=med("read_cpu_us"), serve_rss_mb=med("serve_rss_mb"),
             setup_wall_s=med("setup_wall_s"), build_s=med("build_s"),
             read_qps=statistics.median(q for r in rounds for q in r["load"]["closed"]["window_qps"]),
             read_p50_ms_lo=load["lo"]["p50_ms"], read_p99_ms_lo=load["lo"]["tail_ms"],
             read_p50_ms_hi=load["hi"]["p50_ms"], read_p99_ms_hi=load["hi"]["tail_ms"],
             error_frac=bad / max(1, att))
    if load.get("writer"):
        wmed = lambda k: statistics.median(r["load"]["writer"][k] for r in rounds)
        m.update(update_visible_p50_ms=wmed("visible_p50_ms"),
                 update_visible_p90_ms=wmed("visible_p90_ms"), update_ops_s=wmed("ops_s"))
    return m


def hist(metrics, name, field):
    h = metrics["metrics"].get(name)
    return h.get(field, 0.0) if h else 0.0


def counter(metrics, name):
    h = metrics["metrics"].get(name)
    return h["value"] if h else 0


def per_layer(res):
    sm = res["server_metrics"]
    lay = dict(res["layers"])
    lay["server.queue_wait_ms_p50"] = (hist(sm, "hopi_server_queue_wait_ns", "p50") or 0.0) / 1e6
    lay["server.queue_wait_ms_p99"] = (hist(sm, "hopi_server_queue_wait_ns", "p99") or 0.0) / 1e6
    hits, misses = counter(sm, "hopi_serve_cache_hits_total"), counter(sm, "hopi_serve_cache_misses_total")
    lay["label_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    lay["label_cache.evictions"] = counter(sm, "hopi_serve_cache_evictions_total")
    ph, pm = (counter(sm, "hopi_storage_shared_pool_hits_total"),
              counter(sm, "hopi_storage_shared_pool_misses_total"))
    lay["read_pool.hit_ratio"] = ph / (ph + pm) if ph + pm else 0.0
    lay["read_pool.evictions"] = counter(sm, "hopi_storage_shared_pool_evictions_total")
    lay["vfs.page_reads"] = counter(sm, "hopi_storage_page_reads_total")
    single, scatter = (counter(sm, "hopi_router_single_shard_total"),
                       counter(sm, "hopi_router_scatter_total"))
    lay["router.scatter_frac"] = scatter / (single + scatter) if single + scatter else 0.0
    # cache entries a flip evicts need reads between flips: the server's count
    flips = counter(sm, "hopi_serve_generation_flips_total")
    lay["generation.flip_invalidated"] = (
        counter(sm, "hopi_serve_generation_invalidated_total") / flips if flips else 0.0)
    load = res["load"]
    lay["loadgen.late_ms_p99"] = max(load["lo"]["late_ms_p99"], load["hi"]["late_ms_p99"])
    # the socket round trip of one frame (one connection, one request in
    # flight) minus the in-process evaluation of the same frames: what
    # framing, the server's threads and its queue add
    lay["frame.self_us"] = load["rt"]["mean_rt_ms"] * 1000.0 - lay["batch.eval_us"]
    e2e = end_to_end(res)
    for k, _ in REPORT_ONLY:
        lay[k] = e2e.get(k, 0.0)
    return lay


def stamps(res):
    w = res["w"]
    return dict(nproc=len(os.sched_getaffinity(0)), jobs=JOBS, ocaml=ocaml_version(),
                source=source_stamp(), seed=res["seed"], held_out_seed=HELD_OUT_SEED,
                fsync="on (hopi defaults)", corpus_docs=w["docs"],
                corpus_seed=CORPUS_SEED, batch=w["batch"],
                queue_depth=1024, max_inflight=2048,
                store_mb=round(res["store_mb"], 3), cache_mb=w["cache_mb"],
                pool_pages=w["pool_pages"], pool_mb=w["pool_pages"] * 4 / 1024.0,
                rates_frames_s=[w["lo"], w["hi"]],
                note="store files sit in the OS page cache: latencies are this "
                     "machine's, not a storage device's")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    # a terminated run still stops its server and removes its run directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    build_programs()
    os.makedirs(OUT, exist_ok=True)
    try:
        res = run_workload(a.workload, a.seed, a.seconds, a.trace == 1)
    except RuntimeError as e:
        fail(str(e))
    att, bad, wrong = tally(res)
    e2e = end_to_end(res)
    st = stamps(res)
    print("perfbench %s seed=%d trace=%d" % (a.workload, a.seed, a.trace))
    print("  stamp " + json.dumps(st, sort_keys=True))
    units = dict(END_TO_END + REPORT_ONLY)
    for k in [k for k, _ in END_TO_END + REPORT_ONLY if k in e2e]:
        print("  %-24s %14.6g %s" % (k, e2e[k], units[k]))
    print("  %d rounds; read_qps over %d closed-loop windows"
          % (len(res["rounds"]), sum(len(r["load"]["closed"]["window_qps"]) for r in res["rounds"])))
    for ph in ("lo", "hi"):
        r = res["load"][ph]
        print("  open loop %s (%g frames/s): %d requests; p50 over %d windows, p%.4g over %d; "
              "generator late p99 %.3f ms"
              % (ph, res["w"][ph], r["n"], r["windows"], 100 * r["tail_q"], r["tail_windows"],
                 r["late_ms_p99"]))
    if a.trace:
        metrics = per_layer(res)
        names = [m["name"] for m in json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["per_layer"]]
        metrics = {k: metrics.get(k, 0.0) for k in names}
        for k in names:
            print("  %-34s %14.6g" % (k, metrics[k]))
        print("  spans written to " + res["spans"])
        units = {m["name"]: m["unit"] for m in
                 json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["per_layer"]}
    else:
        metrics = {k: e2e[k] for k, _ in END_TO_END}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", "%s-%d-t%d.json" % (a.workload, a.seed, a.trace)),
              "w") as f:
        json.dump(dict(stamp=st, end_to_end=e2e, result=res), f, indent=1, default=str)
    out = dict(correct=wrong == 0, attempted=att, failed=bad,
               metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
    print(json.dumps(out))


if __name__ == "__main__":
    main()
