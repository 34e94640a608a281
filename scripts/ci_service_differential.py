#!/usr/bin/env python
"""Service-mode differential CI checks for the campaign daemon.

Three phases, selectable with ``--only`` (default: all):

1. **cold-shards** — start a fresh daemon on an empty result store and
   submit the same campaign over HTTP with 1 and 4 workers.  Both
   responses must carry counts bit-identical to an in-process serial
   reference run: sharding a campaign across a worker pool behind the
   service must be invisible in the results.

2. **store-replay** — run ``repro inject`` (the one-shot CLI) against a
   shared result store, then start a daemon on that store and submit
   the same spec twice.  Both submits must be admission-time store hits
   (``cached``, zero trials executed) returning the CLI run's counts
   bit-for-bit, and the daemon's ``/v1/stats`` must expose the
   scheduler counters and name the daemon's store.  Then the
   stored entry is rewritten with a negative count: a fresh daemon's
   next submit must recompute it (not ``cached``, the serial counts),
   and the submit after that must be a store hit again.

3. **reuse** — one daemon takes interleaved submits over two
   benchmarks, so it serves each campaign from the module and injector
   it compiled for an earlier one.  Campaigns on the same module switch
   checkpointing, the snapshot stride (so a reused injector rebuilds
   its capture) and the interpreter tier (codegen, batch with lanes),
   and return to the defaults; each must match a fresh in-process
   serial reference and report the tier and checkpoint mode it asked
   for.  Every submit uses a new seed, because none of these knobs is
   part of the campaign key.  A submit naming the retired ``closure``
   tier must be refused with 400.

The daemon runs as a real subprocess (stderr → ``service-daemon.log``,
uploaded by CI on failure) listening on an ephemeral port published
through ``--port-file``.  Exits non-zero with a one-line reason on the
first failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.bench import build_module
from repro.cache import ArtifactCache, campaign_key, module_fingerprint
from repro.cache.artifacts import CAMPAIGN_KIND
from repro.fi.campaign import FaultInjector
from repro.interp.codegen import resolve_tier
from repro.serve import ServiceError

BENCH = "pathfinder"
SCALE = "test"
LOG_PATH = Path("service-daemon.log")

#: The reuse phase's benchmarks, submitted alternately.
REUSE_BENCHES = (BENCH, "nw")
#: Settings the reuse phase's campaigns switch through, in order.
REUSE_SETTINGS = (
    {},
    {"checkpoint": False},
    {"checkpoint_stride": 37},
    {"interp_tier": "codegen"},
    {"interp_tier": "batch", "batch_lanes": 8},
    {},
)


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"FAIL: {message}")
    print(f"ok: {message}")


class Daemon:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, cache_dir: str, workers: int = 1):
        self._port_file = Path(tempfile.mkstemp(suffix=".port")[1])
        self._port_file.unlink()
        self._log = LOG_PATH.open("a", encoding="utf-8")
        env = dict(os.environ, REPRO_CACHE_DIR=cache_dir)
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(workers),
             "--port-file", str(self._port_file)],
            env=env, stdout=self._log, stderr=self._log,
        )
        deadline = time.monotonic() + 60.0
        while not self._port_file.exists():
            if self.process.poll() is not None:
                sys.exit(f"FAIL: daemon exited with "
                         f"{self.process.returncode} before listening "
                         f"(see {LOG_PATH})")
            if time.monotonic() > deadline:
                self.process.terminate()
                sys.exit(f"FAIL: daemon did not publish a port within "
                         f"60s (see {LOG_PATH})")
            time.sleep(0.05)
        self.port = int(self._port_file.read_text().strip())

    def client(self):
        from repro.serve import ServiceClient
        return ServiceClient("127.0.0.1", self.port, timeout=600.0)

    def stop(self) -> None:
        self.process.terminate()
        try:
            self.process.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self._log.close()
        self._port_file.unlink(missing_ok=True)


def payload(runs: int, seed: int, workers: int) -> dict:
    return {"benchmark": BENCH, "scale": SCALE, "runs": runs,
            "seed": seed, "workers": workers}


def serial_reference(runs: int, seed: int, bench: str = BENCH) -> dict:
    """In-process serial counts: the ground truth every phase gates on."""
    return FaultInjector(build_module(bench, SCALE)).campaign(
        runs, seed=seed
    ).counts


def cold_shards(runs: int, seed: int) -> None:
    serial = serial_reference(runs, seed)
    for workers in (1, 4):
        with tempfile.TemporaryDirectory() as cache_dir:
            daemon = Daemon(cache_dir, workers=workers)
            try:
                job = daemon.client().submit(
                    payload(runs, seed, workers), wait=True
                )
            finally:
                daemon.stop()
            check(job["status"] == "done",
                  f"cold submit completed with {workers} workers")
            check(not job["cached"],
                  f"cold submit actually executed ({workers} workers)")
            check(job["result"]["counts"] == serial,
                  f"service counts with {workers} workers are "
                  f"bit-identical to the serial CLI reference")


def store_replay(runs: int, seed: int, bench_json: str | None) -> None:
    serial = serial_reference(runs, seed)
    with tempfile.TemporaryDirectory() as cache_dir:
        env = dict(os.environ, REPRO_CACHE_DIR=cache_dir)
        started = time.perf_counter()
        cli = subprocess.run(
            [sys.executable, "-m", "repro", "inject", BENCH,
             "--scale", SCALE, "--runs", str(runs), "--seed", str(seed)],
            env=env, capture_output=True, text=True,
        )
        cli_seconds = time.perf_counter() - started
        check(cli.returncode == 0,
              f"repro inject computed the campaign "
              f"({cli_seconds:.1f}s)")

        daemon = Daemon(cache_dir)
        try:
            client = daemon.client()
            replays = []
            for attempt in (1, 2):
                started = time.perf_counter()
                job = client.submit(payload(runs, seed, 1), wait=True)
                replays.append(time.perf_counter() - started)
                check(job["cached"],
                      f"submit #{attempt} of the CLI-computed campaign "
                      f"is an admission-time store hit "
                      f"({replays[-1] * 1000:.0f}ms)")
                check(job["result"]["from_cache"],
                      f"submit #{attempt} executed zero trials")
                check(job["result"]["counts"] == serial,
                      f"submit #{attempt} returned the CLI counts "
                      f"bit-for-bit")
            stats = client.stats()
        finally:
            daemon.stop()
        check(stats["counters"]["cache_hits"] >= 2,
              "scheduler counted both store hits")
        check(stats["counters"]["completed"] == 0,
              "dispatcher executed no campaign for the replays")
        check(stats["store"]["root"] == cache_dir,
              "/v1/stats names the daemon's store")
        corrupt_entry(cache_dir, runs, seed)
        daemon = Daemon(cache_dir)
        try:
            client = daemon.client()
            jobs = [client.submit(payload(runs, seed, 1), wait=True)
                    for _attempt in (1, 2)]
        finally:
            daemon.stop()
        check(not jobs[0]["cached"] and jobs[0]["result"]["counts"] == serial,
              "a corrupt store entry is recomputed, with the serial counts")
        check(jobs[1]["cached"] and jobs[1]["result"]["counts"] == serial,
              "the recomputed entry replays from the store")
        if bench_json:
            Path(bench_json).write_text(json.dumps({
                "benchmark": BENCH, "runs": runs, "seed": seed,
                "cli_seconds": cli_seconds,
                "replay_seconds": replays,
                "scheduler_counters": stats["counters"],
            }, indent=2, sort_keys=True) + "\n")
            print(f"wrote {bench_json}")


def corrupt_entry(cache_dir: str, runs: int, seed: int) -> None:
    """Rewrite the stored campaign entry with a negative SDC count
    (the total unchanged), as a damaged store would hold it."""
    store = ArtifactCache(cache_dir)
    key = campaign_key(module_fingerprint(build_module(BENCH, SCALE)),
                       runs, seed)
    entry = store.load(CAMPAIGN_KIND, key)
    check(entry is not None, "the CLI-computed entry is in the store")
    counts = entry["counts"]
    counts["benign"] += counts["sdc"] + 1
    counts["sdc"] = -1
    check(store.store(CAMPAIGN_KIND, key, entry),
          "rewrote the stored entry with a negative count")


def reuse(runs: int, seed: int) -> None:
    jobs = []
    with tempfile.TemporaryDirectory() as cache_dir:
        daemon = Daemon(cache_dir)
        try:
            client = daemon.client()
            try:
                client.submit(dict(payload(runs, seed, 1),
                                   interp_tier="closure"))
                refused = None
            except ServiceError as exc:
                refused = exc.status
            for settings in REUSE_SETTINGS:
                for bench in REUSE_BENCHES:
                    campaign_seed = seed + 1 + len(jobs)
                    body = dict(payload(runs, campaign_seed, 1),
                                benchmark=bench, **settings)
                    jobs.append((bench, campaign_seed, settings,
                                 client.submit(body, wait=True)))
            stats = client.stats()
        finally:
            daemon.stop()
    check(refused == 400, f"a closure-tier submit is refused with 400 "
                          f"(got {refused})")
    for bench, campaign_seed, settings, job in jobs:
        label = f"{bench} seed {campaign_seed} {settings or 'defaults'}"
        check(job["status"] == "done" and not job["cached"],
              f"{label}: executed on the daemon")
        result = job["result"]
        check(result["counts"] == serial_reference(runs, campaign_seed,
                                                   bench),
              f"{label}: counts bit-identical to a fresh serial reference")
        tier = settings.get("interp_tier") or resolve_tier(None)
        check(result["interp_tier"] == tier
              and result["checkpointed"] == settings.get("checkpoint", True),
              f"{label}: ran on the {tier} tier, checkpointed="
              f"{result['checkpointed']}")
    check(stats["counters"]["completed"] == len(jobs),
          f"dispatcher executed all {len(jobs)} campaigns")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--only", action="append",
                        choices=("cold-shards", "store-replay", "reuse"),
                        help="run a subset of the phases")
    parser.add_argument("--runs", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--bench-json", default=None, metavar="PATH",
                        help="write service-mode timing/counter facts "
                             "here (nightly: BENCH_service.json)")
    args = parser.parse_args()
    phases = args.only or ["cold-shards", "store-replay", "reuse"]
    LOG_PATH.write_text("")  # fresh log per invocation
    if "cold-shards" in phases:
        cold_shards(args.runs, args.seed)
    if "store-replay" in phases:
        store_replay(args.runs, args.seed, args.bench_json)
    if "reuse" in phases:
        reuse(args.runs, args.seed)
    print("service differential: all checks passed")


if __name__ == "__main__":
    main()
