"""``svc-mixed``: open-loop requests against a separate ``hqs-serve``.

One generator (this process, asyncio) sends ``RATE`` requests per
second on a fixed, seeded schedule over ``CONNECTIONS`` TCP
connections to an ``hqs-serve`` process running ``WORKERS`` warm
workers with the disk cache tier and the result log on.  Each request
is timed from when it was due, so a stall also charges the requests
queued behind it.  A run is ``ROUNDS`` rounds against freshly started
servers replaying the same schedule, and a request's latency is its
median over the rounds: one solve's latency on a shared machine varies
by a quarter from one second to the next.

A warm-up asks for each of ``REPEAT_POOL`` formulas once; the measured
requests then mostly repeat them.  The memory tier holds only
``CACHE_CAPACITY`` of them, so repeats are served from both the memory
and the disk tier.  One request in ``FRESH_EVERY`` carries
a formula the server has never seen (a cache miss and a real solve).
All formulas come from the pec-easy families.

The traced run hosts the server in ``svc_host.py``, which wraps the
service layers' calls with span recorders; the time split inside each
worker comes from the stats of the reply.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import shutil
import subprocess
import sys
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Sequence, Tuple

import spans
import suite

RATE = 20.0
CONNECTIONS = 2
WORKERS = 2
REPEAT_POOL = 24
CACHE_CAPACITY = 16
#: Every FRESH_EVERY-th measured request is a miss (10%).  With 200
#: requests a round, the tail (rank n - 10) lies in the middle of the
#: misses: the slowest few hits (collection pauses, large disk hits)
#: vary from seed to seed far more than a typical miss does.
FRESH_EVERY = 10
#: A request answered correctly within this latency counts as served.
LATENCY_LIMIT = 2.0
BUSY_RETRIES = 3
#: An untraced run is this many rounds, each against a fresh server.
ROUNDS = 3
FAMILIES = ("adder", "bitcell", "lookahead", "pec_xor", "z4")
START_TIMEOUT = 60.0

Schedule = List[Tuple[float, suite.Item, str]]


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def make_schedule(seed: int, seconds: float) -> Tuple[Schedule, Schedule]:
    """The warm-up requests and the measured ``(offset_s, item, fingerprint)``s.

    The warm-up asks for each repeat-pool formula once, so the measured
    schedule starts with the caches filled.  In the measured schedule
    every ``FRESH_EVERY``-th request carries the next fresh formula;
    the seed picks which pool formula each other request repeats.  The
    misses (formulas, texts and positions) are the same for every seed,
    so every run pays for the same solves.
    """
    from repro.core.checkpoint import formula_fingerprint
    from repro.formula.dqdimacs import parse_dqdimacs

    rng = random.Random(seed)
    distinct, seen = [], set()
    for item in suite.build_suite(FAMILIES, 40, 1.0, None):
        fingerprint = formula_fingerprint(parse_dqdimacs(item.text))
        if fingerprint not in seen:
            seen.add(fingerprint)
            distinct.append((item, fingerprint))
    pool, fresh = distinct[:REPEAT_POOL], iter(distinct[REPEAT_POOL:])
    count = int(RATE * seconds)
    if count // FRESH_EVERY > len(distinct) - REPEAT_POOL:
        raise ValueError(f"--seconds {seconds}: not enough distinct fresh formulas")
    schedule = []
    for index in range(count):
        if index % FRESH_EVERY == FRESH_EVERY - 1:
            entry = next(fresh)
        else:
            entry = rng.choice(pool)
        schedule.append((index / RATE, *entry))
    return [(0.0, *entry) for entry in pool], schedule


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------

class Server:
    """One ``hqs-serve`` child process and its run directory."""

    def __init__(self, root: str, run_dir: str, traced: bool):
        self.run_dir = run_dir
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        self.log_path = os.path.join(run_dir, "results.jsonl")
        self.spans_path = os.path.join(run_dir, "spans.json")
        args = [
            "--port", "0", "--http-port", "0", "--workers", str(WORKERS),
            "--cache-capacity", str(CACHE_CAPACITY),
            "--cache-dir", os.path.join(run_dir, "cache"), "--log", self.log_path,
            "--timeout", str(suite.TIME_LIMIT), "--node-limit", str(suite.NODE_LIMIT),
        ]
        if traced:
            command = [sys.executable, os.path.join(root, "perfbench", "svc_host.py"),
                       self.spans_path, *args]
        else:
            command = [sys.executable, "-m", "repro.service.server", *args]
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self._stderr = open(os.path.join(run_dir, "server.err"), "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )
        try:
            self.port, self.http_port = self._await_announce()
            self._await_ready()
        except BaseException:
            self.process.kill()
            self.process.communicate()
            self._stderr.close()
            raise

    def _await_announce(self) -> Tuple[int, int]:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.process.stdout], [], [], 0.5)
            if ready:
                line = self.process.stdout.readline()
                if not line:
                    break
                if "listening on" in line:
                    # "c hqs-serve listening on HOST:PORT (http HTTP_PORT)"
                    port = int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])
                    http_port = int(line.rsplit("http", 1)[1].strip(" )\n"))
                    return port, http_port
            elif self.process.poll() is not None:
                break
        raise RuntimeError("hqs-serve did not announce its port")

    def _await_ready(self) -> None:
        url = f"http://127.0.0.1:{self.http_port}/readyz"
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(url, timeout=5) as response:
                    if response.status == 200:
                        return
            except (urllib.error.URLError, OSError):
                pass
            time.sleep(0.01)
        raise RuntimeError("hqs-serve did not become ready")

    def request(self, op: str) -> Dict[str, object]:
        """One control request (``stats``, ``shutdown``) on its own connection."""
        from repro.service.client import ServiceClient

        with ServiceClient(port=self.port, timeout=30, retries=0) as client:
            return client.request({"op": op})

    def stop(self) -> None:
        """Drain through the ``shutdown`` op; kill if that fails."""
        from repro.service.client import ServiceError

        try:
            if self.process.poll() is None:
                self.request("shutdown")
                self.process.communicate(timeout=60)
        except (ServiceError, OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.communicate()
        finally:
            self._stderr.close()

    def log_keys(self) -> Tuple[List[str], int]:
        """Fingerprints in the result log, and the count of corrupt lines."""
        from repro import durable

        keys, corrupt = [], 0
        if os.path.exists(self.log_path):
            with open(self.log_path, "r", encoding="utf-8") as handle:
                for line in handle:
                    if not line.strip():
                        continue
                    payload, verdict = durable.unframe_line(line)
                    if verdict == "corrupt":
                        corrupt += 1
                    else:
                        keys.append(str(json.loads(payload)["instance"]))
        return keys, corrupt


def start(root: str, seed: int, seconds: float, traced: bool):
    """One set-up: the schedule, and a server started until ``/readyz`` is 200.

    Returns the warm-up and measured schedules, the server and the
    set-up time (generating and writing the formulas, starting the
    server and spawning its worker pool).
    """
    started = time.perf_counter()
    schedules = make_schedule(seed, seconds)
    server = Server(root, os.path.join(root, ".bench_build", "perfbench", "svc-mixed"),
                    traced)
    return schedules, server, time.perf_counter() - started


# ----------------------------------------------------------------------
# the load generator
# ----------------------------------------------------------------------

async def _drive(port: int, schedule: Schedule):
    from repro.service.protocol import (
        MAX_LINE_BYTES, decode_message, encode_message, solve_request,
    )

    queue: "asyncio.Queue[Optional[Tuple[int, float]]]" = asyncio.Queue()
    replies: List[Optional[Tuple[Dict[str, object], float]]] = [None] * len(schedule)
    lags: List[float] = []
    busy = [0]
    messages = [
        encode_message(solve_request(item.text, family=item.family, request_id=index))
        for index, (_, item, _) in enumerate(schedule)
    ]
    start = time.perf_counter() + 0.05

    async def scheduler() -> None:
        for index, (offset, _, _) in enumerate(schedule):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(time.perf_counter() - due)
            queue.put_nowait((index, due))
        for _ in range(CONNECTIONS):
            queue.put_nowait(None)

    async def connection() -> None:
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=MAX_LINE_BYTES)
        try:
            while True:
                job = await queue.get()
                if job is None:
                    return
                index, due = job
                for attempt in range(BUSY_RETRIES + 1):
                    writer.write(messages[index])
                    await writer.drain()
                    line = await asyncio.wait_for(
                        reader.readline(), timeout=3 * suite.TIME_LIMIT)
                    if not line:
                        raise ConnectionError("server closed the connection")
                    reply = decode_message(line)
                    if not reply.get("busy"):
                        break
                    busy[0] += 1
                    await asyncio.sleep(0.05 * 2 ** attempt)
                replies[index] = (reply, time.perf_counter() - due)
        except (ConnectionError, asyncio.TimeoutError, ValueError) as exc:
            print(f"connection lost: {exc!r}", file=sys.stderr)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    await asyncio.gather(scheduler(), *(connection() for _ in range(CONNECTIONS)))
    return replies, lags, busy[0], time.perf_counter() - start


def judge(schedule: Schedule, replies) -> List[str]:
    """Outcome per request; a reply for the wrong fingerprint is wrong."""
    kinds = []
    for (_, item, fingerprint), entry in zip(schedule, replies):
        if entry is None:
            kinds.append("lost")
            continue
        reply = entry[0]
        if not reply.get("ok"):
            kinds.append("error")
            continue
        kind = suite.outcome(item.expected, str(reply.get("status")),
                             reply.get("failure"), reply.get("stats") or {})
        if kind == "solved" and reply.get("fingerprint") != fingerprint:
            kind = "wrong"
        kinds.append(kind)
    return kinds


def check_log(server: Server, replies) -> int:
    """Discrepancies between the result log and the definitive replies.

    The log must hold exactly one entry per fingerprint the server
    solved to a verdict: none lost, none duplicated, none corrupt.
    """
    keys, corrupt = server.log_keys()
    answered = {
        str(entry[0].get("fingerprint")) for entry in replies
        if entry is not None and entry[0].get("status") in (suite.SAT, suite.UNSAT)
    }
    duplicated = len(keys) - len(set(keys))
    missing = len(answered - set(keys))
    unexpected = len(set(keys) - answered)
    return corrupt + duplicated + missing + unexpected


def run(root: str, seed: int, seconds: float, traced: bool) -> Dict[str, object]:
    """``ROUNDS`` rounds of ``seconds / ROUNDS`` each, one fresh server per round.

    Every round replays the same schedule; a request's latency is its
    median over the rounds.  The traced run makes one round.
    """
    rounds = 1 if traced else ROUNDS
    kinds, setups, walls, log_errors = [], [], [], 0
    per_request: List[List[float]] = []
    served = solved = 0
    for _ in range(rounds):
        (warmup, schedule), server, setup_s = start(root, seed, seconds / rounds, traced)
        setups.append(setup_s)
        try:
            warm_replies = asyncio.run(_drive(server.port, warmup))[0]
            before = server.request("stats")
            measured_from = time.perf_counter()
            replies, lags, busy, wall = asyncio.run(_drive(server.port, schedule))
            after = server.request("stats")
        finally:
            server.stop()
        round_kinds = judge(warmup + schedule, warm_replies + replies)
        kinds += round_kinds
        measured = round_kinds[len(warmup):]
        log_errors += check_log(server, warm_replies + replies)
        walls.append(wall)
        per_request = per_request or [[] for _ in schedule]
        for samples, entry, kind in zip(per_request, replies, measured):
            ok = kind == "solved"
            samples.append(entry[1] if ok else 2 * suite.TIME_LIMIT)
            solved += ok
            served += ok and entry[1] <= LATENCY_LIMIT
    latencies = [suite.median(samples) for samples in per_request]
    tail = suite.tail(latencies)
    result = {
        "outcomes": kinds,
        "log_errors": log_errors,
        "notes": {"rounds": rounds, "warmup_requests": len(warmup),
                  "requests_per_round": len(schedule),
                  "solve_tail_percentile": tail["percentile"],
                  "samples": tail["samples"], "busy_retries_last_round": busy,
                  "cache_tags_last_round": _tag_counts(replies),
                  "log_errors": log_errors},
    }
    if not traced:
        result["metrics"] = {
            "setup_s": suite.median(setups),
            "wall_s": suite.median(walls),
            "solved": solved / rounds,
            "par2_s": sum(latencies),
            "solve_p50_ms": 1000 * suite.median(latencies),
            "solve_tail_ms": 1000 * tail["value"],
            "peak_rss_mb": suite.peak_rss_mb(children=True),
            "within_limit_share": served / (rounds * len(schedule)),
        }
        return result
    with open(server.spans_path, "r", encoding="utf-8") as handle:
        dump = json.load(handle)
    # perf_counter is the system-wide monotonic clock on Linux, so the
    # server's span times and this process's can be compared.
    dump["spans"] = [span for span in dump["spans"]
                     if span[spans.START] >= measured_from]
    result.update(_layers(schedule, replies, measured, lags,
                          _delta(after, before), dump))
    return result


def _delta(after: Dict[str, object], before: Dict[str, object]) -> Dict[str, object]:
    """Numeric fields of a ``stats`` reply, minus the warm-up's share."""
    out: Dict[str, object] = {}
    for key, value in after.items():
        if isinstance(value, dict):
            out[key] = _delta(value, before.get(key) or {})
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = value - before.get(key, 0)
    return out


def _tag_counts(replies) -> Dict[str, int]:
    tags: Dict[str, int] = {}
    for entry in replies:
        if entry is not None:
            tag = str(entry[0].get("cache"))
            tags[tag] = tags.get(tag, 0) + 1
    return tags


def _layers(schedule: Schedule, replies, kinds: Sequence[str], lags, stats,
            dump) -> Dict[str, object]:
    table = spans.by_name(dump["spans"])

    def self_s(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    answered = [entry for entry in replies if entry is not None]
    hits = [lat for reply, lat in answered if reply.get("cache") in ("hit", "disk")]
    misses = [(reply, lat) for reply, lat in answered
              if reply.get("cache") in ("miss", "coalesced")]
    solved_here = [reply for reply, _ in misses if reply.get("cache") == "miss"]
    worker_stats = [reply.get("stats") or {} for reply in solved_here]
    cache = stats.get("cache", {})
    pool = stats.get("pool", {})
    covered = sum(row["self_s"] for row in table.values())
    latency_total = sum(lat for _, lat in answered)

    def worker_total(key: str) -> float:
        return float(sum(s.get(key, 0.0) for s in worker_stats))

    layers = suite.solver_layers(worker_stats, kinds)
    layers.update({
        "hit_p50_ms": 1000 * suite.median(hits),
        "hit_tail_ms": 1000 * suite.tail(hits)["value"],
        "miss_p50_ms": 1000 * suite.median([lat for _, lat in misses]),
        "miss_tail_ms": 1000 * suite.tail([lat for _, lat in misses])["value"],
        "selection.self_s": worker_total("time_maxsat"),
        "unitpure.self_s": worker_total("unit_pure_time"),
        "qbf.self_s": worker_total("time_qbf"),
        "fraig.sweep_s": worker_total("time_fraig"),
        "service.parse_s": self_s("service.parse"),
        "service.fingerprint_s": self_s("service.fingerprint"),
        "service.coalesced": float(stats.get("coalesced", 0)),
        "service.busy_rejections": float(stats.get("busy_rejections", 0)),
        "cache.lookup_s": self_s("cache.lookup"),
        "cache.store_s": self_s("cache.store"),
        "cache.memory_hits": float(cache.get("memory_hits", 0)),
        "cache.disk_hits": float(cache.get("disk_hits", 0)),
        "cache.stores": float(cache.get("stores", 0)),
        "cache.evictions": float(cache.get("evictions", 0)),
        "cache.hit_rate": float(cache.get("hits", 0)) / max(1.0, float(cache.get("lookups", 0))),
        "pool.worker_s": float(sum(float(r.get("runtime", 0.0)) for r in solved_here)),
        "pool.miss_overhead_ms": 1000 * suite.median([
            lat - float(reply.get("runtime", 0.0))
            for reply, lat in misses if reply.get("cache") == "miss"]),
        "pool.warm_share": sum(int(r.get("warm", 0)) for r in solved_here)
        / max(1, len(solved_here)),
        "pool.worker_deaths": float(pool.get("worker_deaths", 0)),
        "pool.hard_kills": float(pool.get("hard_kills", 0)),
        "gen.lag_ms": 1000 * suite.tail(lags)["value"],
        "trace.coverage": covered / latency_total if latency_total else 0.0,
        "trace.uncovered_s": latency_total - covered,
        "trace.overhead_s": len(dump["spans"]) * float(dump.get("span_cost_s", 0.0)),
    })
    report = [
        f"trace: {len(dump['spans'])} server spans over {len(schedule)} requests "
        f"({len(hits)} hits, {len(misses)} misses)",
        "server layers ranked by self time:",
        *spans.ranking(table),
        f"  {'(uncovered remainder)':<28} self {layers['trace.uncovered_s']:9.4f} s",
        f"coverage {layers['trace.coverage']:.4f} of {latency_total:.3f} s summed "
        "request latency (the rest: queueing, framing, event loop, network); "
        f"overhead ~{layers['trace.overhead_s']:.4f} s "
        f"({dump.get('span_cost_s', 0.0) * 1e6:.2f} us per span)",
    ]
    return {"metrics": layers, "report": report}
