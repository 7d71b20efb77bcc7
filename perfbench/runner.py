"""One benchmark run: set-up, the timed rounds, checks."""

from __future__ import annotations

import asyncio
import json
import math
import os
import shutil
import signal
import sys
import time
from pathlib import Path

import numpy as np

import loadgen
import tracing
import workloads as W
from tracing import CLOCK

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
#: In a traced run the first round's build and these deltas are traced;
#: the others run untraced, so the tracing overhead is traced − untraced
#: on the same kind of work.
TRACED_DELTAS = (1, 2)
#: Spans must account for at least this share of each traced unit's wall.
MIN_TRACE_COVERAGE = 0.95
#: Pause before a ladder rung is retried with no round in between.
RETRY_PAUSE_S = 1.0
#: Operations whose failure is counted in ``failed`` rather than raised.
OPERATION_ERRORS = (W.CheckFailed, OSError, TimeoutError)


class Runner:
    """Runs one workload with one seed; ``run()`` returns (result, detail)."""

    def __init__(self, workload: W.Workload, seed: int, seconds: float, trace: bool, work: Path) -> None:
        self.w = workload
        self.seed, self.seconds, self.trace, self.work = seed, seconds, trace, work
        self.tracer = tracing.Tracer()
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.detail: dict = {"workload": workload.name, "why": workload.why, "seed": seed,
                             "seconds": seconds, "trace": int(trace), "data": workload.data}
        self.coverage: list[float] = []
        self.servers: dict[str, W.Server] = {}
        self.async_spans: list[dict] = []
        self.subprocess_peaks_kb: list[int] = []
        self.builds: list[dict] = []
        self.delta_paths: list[Path] = []
        self.update_ok = True

    # ------------------------------------------------------------------ #
    def _error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def _count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def _fail(self, message: str) -> None:
        """One attempted operation failed."""
        self._count(1, 1)
        self._error(message)

    async def run(self) -> tuple[dict, dict]:
        """Set up, run the timed rounds, check outputs; build the result line.

        A failed build, server start or delta is counted and ends the
        phases that depend on it; the result line is still returned.
        """
        import repro.cli  # noqa: F401 - import cost is not set-up
        import repro.serving  # noqa: F401

        setup_times = []
        for k in range(SETUP_REPEATS):
            start = CLOCK()
            inputs = W.generate_inputs(self.w, self.work / f"inputs-{k}")
            setup_times.append(CLOCK() - start)
        self.inputs = inputs
        self.detail["sizes"] = inputs["sizes"]
        self.detail["setup_generate_s"] = setup_times

        metrics: dict[str, float] = {}
        timed_start = CLOCK()
        tracing.reset_peak()
        first = self._build(0, traced=False, directory=self.work / "live")
        if first is None:
            return self._result(metrics)
        metrics.update(W.quality(first))
        # The serve server keeps the first build's revision; the live server
        # gets the deltas.  Reference slices and rungs thus never meet a
        # reload, and the deltas never meet ladder load.
        static = self.work / "static"
        for name in ("artifact", "pipeline"):
            shutil.copytree(first[name], static / name)
        self.servers = {
            "serve": W.Server(static / "artifact", static / "pipeline", self.work / "serve.log"),
            "live": W.Server(first["artifact"], first["pipeline"], self.work / "live.log"),
        }
        try:
            try:
                starts = [server.start() for server in self.servers.values()]
            except W.CheckFailed as exc:
                self._fail(str(exc))
                return self._result(metrics)
            self._pin()
            metrics["setup_s"] = W.median(setup_times) + sum(starts)
            self.detail["server_start_s"] = starts
            for server in self.servers.values():
                tracing.reset_peak(server.proc.pid)
            metrics.update(await self._rounds(first))
            statuses = [tracing.proc_status_kb(s.proc.pid) for s in self.servers.values()]
            peaks = [tracing.proc_status_kb().get("VmHWM", 0), *self.subprocess_peaks_kb,
                     *(status.get("VmHWM", 0) for status in statuses)]
            metrics["peak_rss_mb"] = max(peaks) / 1024.0
            self.server_rss_kb = max(status.get("VmRSS", 0) for status in statuses)
            self.server_peak_kb = max(status.get("VmHWM", 0) for status in statuses)
            self.detail["timed_wall_s"] = CLOCK() - timed_start
        finally:
            for server in self.servers.values():
                server.stop()
        if self.update_ok and self.delta_paths:
            try:
                W.check_final_artifact(first["artifact"], first["pipeline"], self.base_split,
                                       self.delta_paths)
            except W.CheckFailed as exc:
                self._fail(str(exc))
            else:
                self._count(1, 0)
        return self._result(metrics)

    def _result(self, metrics: dict[str, float]) -> tuple[dict, dict]:
        """The result line: every metric of the run's kind, ``None`` where a
        failure left it unmeasured."""
        metrics["success_share"] = 1.0 - self.failed / max(self.attempted, 1)
        self.detail["errors"] = self.errors
        self.detail["metrics"] = metrics
        if self.trace and "update_s" in metrics:
            out_metrics = self._layer_metrics()
            if min(self.coverage, default=0.0) < MIN_TRACE_COVERAGE:
                self._error(f"spans cover only {min(self.coverage, default=0.0):.3f} "
                            "of a traced unit's wall time")
        else:
            names = W.per_layer_metrics() if self.trace else W.END_TO_END
            out_metrics = {name: {"value": float(metrics[name]) if name in metrics else None,
                                  "unit": unit} for name, unit in names.items()}
        result = {"correct": not self.errors, "attempted": max(self.attempted, 1),
                  "failed": self.failed, "metrics": out_metrics}
        return result, self.detail

    def _pin(self) -> None:
        """Give the servers a CPU of their own, away from their load generator.

        The benchmark process, and the update subprocesses it starts, keep
        the other CPUs; builds get every CPU back while they run (the
        servers are idle then).  With a single CPU nothing is pinned.
        """
        self.all_cpus = sorted(os.sched_getaffinity(0))
        self.client_cpus = set(self.all_cpus)
        if len(self.all_cpus) < 2:
            return
        self.client_cpus = set(self.all_cpus[:-1])
        for server in self.servers.values():
            os.sched_setaffinity(server.proc.pid, {self.all_cpus[-1]})
        os.sched_setaffinity(0, self.client_cpus)
        self.detail["pinned"] = {"servers": [self.all_cpus[-1]], "client": self.all_cpus[:-1]}

    # ------------------------------------------------------------------ #
    # Build
    # ------------------------------------------------------------------ #
    def _build(self, index: int, traced: bool, directory: Path) -> dict | None:
        """One checked build; ``None`` when it failed (counted)."""
        installed = tracing.install(self.tracer) if traced else None
        try:
            build = W.build_once(self.inputs, directory, self.tracer if traced else None)
        except W.CheckFailed as exc:
            self._fail(f"build {index}: {exc}")
            return None
        finally:
            if installed is not None:
                installed.remove()
        build["traced"] = traced
        self._count(1, 1 if build["error"] else 0)
        if build["error"]:
            self._error(build["error"])
        if index and build["in_run"].tobytes() != self.builds[0]["in_run"].tobytes():
            self._error("recommend_all rows differ between two builds of the same inputs")
        self.builds.append(build)
        if traced:
            window = [s for s in self.tracer.spans if build["start"] <= s.start <= build["end"]]
            self.coverage.append(tracing.root_coverage(window, build["start"], build["end"]))
        return build

    def _round_build(self, index: int) -> None:
        """A build of a round, on every CPU, beside the served one."""
        if len(self.client_cpus) < len(self.all_cpus):
            os.sched_setaffinity(0, set(self.all_cpus))
        try:
            self._build(index, traced=self.trace and index == 1,
                        directory=self.work / f"build-{index % 2}")
        finally:
            os.sched_setaffinity(0, self.client_cpus)

    # ------------------------------------------------------------------ #
    # Rounds: build, reference slice, ladder rung, delta
    # ------------------------------------------------------------------ #
    async def _rounds(self, first: dict) -> dict:
        from repro.pipeline.persistence import load_split_npz

        self.base_split = load_split_npz(first["pipeline"] / "split.npz")
        self.expected = W.Expected(first["artifact"], first["in_run"])
        rng = np.random.default_rng([self.seed, 11])
        self.mix = W.Mix(rng, first["coverage"], W.activity(self.base_split))
        serve = self.servers["serve"]
        conns = 2  # covered GETs on one connection, the general path on the other
        client = await loadgen.Client("127.0.0.1", serve.port, conns).open()
        windows: list[dict] = []
        rungs: list[dict] = []
        ladder: W.Ladder | None = None
        await self._open_updates(first)
        try:
            requests, kinds, slots = W.every_user_plan(self.mix)
            warm = await client.scheduled(requests, 2000, drain_timeout=60, slots=slots)
            self._settle(warm, kinds, self.expected, "check pass")

            before = await self._scrape(client, serve)
            phase_start = CLOCK()
            index = 0
            while True:
                full_round = index < W.MIN_ROUNDS or CLOCK() - phase_start < self.seconds
                if full_round:
                    self._round_build(index + 1)
                    requests, kinds, slots = self.mix.plan(int(W.REF_RATE * W.REF_SLICE_S))
                    ref = await client.scheduled(requests, W.REF_RATE, slots=slots)
                    failed = self._settle(ref, kinds, self.expected, "reference slice")
                    windows += W.windows(ref)
                    if ladder is None:
                        # The search starts above the highest rung not faster
                        # than the reference rate when the first slice met the test.
                        lo = max(i for i, rate in enumerate(W.LADDER) if rate <= W.REF_RATE) \
                            if W.rung_passes(ref, failed) else -1
                        ladder = W.Ladder(lo)
                elif ladder.done:
                    break
                elif ladder.retry:
                    await asyncio.sleep(RETRY_PAUSE_S)
                if not ladder.done:
                    rungs.append(await self._rung(client, ladder))
                if full_round and self.update_ok:
                    await self._delta_round(index)
                index += 1
            self._async_window(before, await self._scrape(client, serve))
        finally:
            client.close()
            update = await self._close_updates()
        builds = self.builds
        if self.trace:
            traced = [b["wall"] for b in builds if b["traced"]]
            untraced = [b["wall"] for b in builds[1:] if not b["traced"]]
            self.build_overhead = traced[0] - W.median(untraced) if traced and untraced else 0.0
        self.detail["build_walls_s"] = [b["wall"] for b in builds]
        self.detail["serve"] = {"windows_p99_ms": [w["p99"] for w in windows],
                                "windows_p50_ms": [w["p50"] for w in windows],
                                "late_p99_ms": max(w["late_p99_ms"] for w in windows),
                                "rungs": rungs, "rounds": index,
                                "ladder": [W.LADDER[0], W.LADDER[-1], len(W.LADDER)],
                                "p99_limit_ms": W.P99_LIMIT_MS, "connections": conns}
        return {"build_s": W.median([b["wall"] for b in builds]),
                "serve_p50_ms": W.median([w["p50"] for w in windows]),
                "serve_p99_ms": W.median([w["p99"] for w in windows]),
                "serve_max_rps": ladder.max_rps, **update}

    def _settle(self, result: loadgen.PhaseResult, kinds: list[tuple], expected: W.Expected,
                label: str) -> int:
        failed, wrong = W.verify(result, kinds, expected)
        self._count(len(result.done), failed)
        if wrong:
            self._error(f"{label}: {wrong} wrong HTTP answers")
        elif failed:
            self._error(f"{label}: {failed} requests unanswered")
        return failed

    async def _rung(self, client: loadgen.Client, ladder: W.Ladder) -> dict:
        """Run the ladder's next rung and move the search on."""
        rate = ladder.rate
        requests, kinds, slots = self.mix.plan(max(1, int(rate * W.RUNG_S)))
        pid = self.servers["serve"].proc.pid
        cpu_server, cpu_client = tracing.proc_cpu_seconds(pid), time.process_time()
        result = await client.scheduled(requests, rate, drain_timeout=10, slots=slots,
                                        abort_backlog=int(rate * W.P99_LIMIT_MS / 250))
        failed = self._settle(result, kinds, self.expected, f"ladder {rate}/s")
        passed = W.rung_passes(result, failed)
        aborted = len(result.done) < len(requests)
        ladder.record(passed)
        await asyncio.sleep(0.2)
        return {"rate": rate, "pass": passed, "aborted": aborted,
                "p99_ms": W.latency_stats(result)["p99"], "backlog_end": result.backlog_end,
                "sent": len(result.done),
                "server_cpu": (tracing.proc_cpu_seconds(pid) - cpu_server) / result.wall,
                "client_cpu": (time.process_time() - cpu_client) / result.wall}

    async def _scrape(self, client: loadgen.Client, server: W.Server) -> tuple[dict, float, float]:
        """``/metrics`` samples, server CPU seconds and the time (traced runs only)."""
        if not self.trace:
            return {}, 0.0, CLOCK()
        try:
            samples = await W.scrape(client)
        except OPERATION_ERRORS as exc:
            self._fail(f"/metrics: {exc}")
            samples = {}
        return samples, tracing.proc_cpu_seconds(server.proc.pid), CLOCK()

    def _async_window(self, before: tuple[dict, float, float], after: tuple[dict, float, float]) -> None:
        if self.trace:
            window = W.async_window(before[0], after[0])
            window.update(cpu=after[1] - before[1], wall=after[2] - before[2])
            self.async_spans.append(window)

    # ------------------------------------------------------------------ #
    # Update: one delta per round against the live server
    # ------------------------------------------------------------------ #
    async def _open_updates(self, first: dict) -> None:
        self.pipe, self.art = first["pipeline"], first["artifact"]
        self.go_live: list[tuple[float, float]] = []
        self.traced_revisions: list[int] = []
        self.snapshots = {1: self.work / "snapshots" / "1"}
        shutil.copytree(self.art, self.snapshots[1])
        self.deltas = W.make_deltas(self.base_split, self.inputs["arrivals"], self.seed)
        self.live = [1]
        live = self.servers["live"]
        self.readers = await loadgen.Client("127.0.0.1", live.port, 1).open()
        self.health = await loadgen.Client("127.0.0.1", live.port, 1).open()
        # One read plan for every delta: activity-weighted covered users,
        # longer than any delta takes.
        self.read_users = self.mix.covered(W.READ_RATE * 60).tolist()
        self.read_plan = [loadgen.get(f"/recommend?user={u}") for u in self.read_users]
        self.read_results: list[loadgen.PhaseResult] = []
        self.update_s: list[float] = []
        self.traced_s: list[float] = []
        self.live_before = await self._scrape(self.health, live)

    async def _delta_round(self, index: int) -> None:
        """Land one delta beside a read stream that runs until it has been live
        for ``GO_LIVE_MARGIN_S``."""
        traced = self.trace and index in TRACED_DELTAS
        stop = asyncio.Event()
        reads = asyncio.ensure_future(self.readers.scheduled(
            self.read_plan, W.READ_RATE, stop=stop, tagger=lambda: self.live[0], drain_timeout=10))
        try:
            seconds = await self._one_delta(index, next(self.deltas), traced)
            await asyncio.sleep(W.GO_LIVE_MARGIN_S)
        except OPERATION_ERRORS as exc:
            # Later deltas build on this one: no more deltas run.
            self._fail(f"delta {index}: {exc}")
            self.update_ok = False
            return
        finally:
            stop.set()
            self.read_results.append(await reads)
        (self.traced_s if traced else self.update_s).append(seconds)
        self.snapshots[self.live[0]] = self.work / "snapshots" / str(self.live[0])
        shutil.copytree(self.art, self.snapshots[self.live[0]])

    async def _close_updates(self) -> dict:
        """Check every read, close the clients; returns the update metrics."""
        self._async_window(self.live_before, await self._scrape(self.health, self.servers["live"]))
        self.readers.close()
        self.health.close()
        self._check_reads()
        go_live = [p for result, window in zip(self.read_results, self.go_live)
                   for p in W.go_live_p99(result, [window])]
        self.detail["update_s"] = self.update_s
        self.detail["update_traced_s"] = self.traced_s
        self.detail["update_reads"] = {"count": sum(len(r.done) for r in self.read_results),
                                       "go_live_p99": go_live}
        if not self.update_ok or not self.update_s:
            return {}
        if self.trace:
            self.update_overhead = W.median(self.traced_s) - W.median(self.update_s)
            self._rows_changed()
        return {"update_s": W.median(self.update_s), "update_read_p99_ms": W.median(go_live)}

    async def _one_delta(self, index: int, rows: list, traced: bool) -> float:
        path = self.work / "deltas" / f"delta-{index}.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("user,item,rating\n" + "".join(f"{u},{i},{r:g}\n" for u, i, r in rows))
        self.delta_paths.append(path)
        start = CLOCK()
        command = ["compile", "--update", "--pipeline", str(self.pipe), "--artifact", str(self.art),
                   "--delta", str(path)]
        spans_path = path.with_suffix(".spans.jsonl")
        if traced:
            cmd = [sys.executable, str(Path(__file__).with_name("repro_cli.py")),
                   str(spans_path), repr(start), *command]
        else:
            cmd = [sys.executable, "-m", "repro", *command]
        loop = asyncio.get_running_loop()
        code, peak_kb, reaped = await loop.run_in_executor(None, W.run_subprocess, cmd,
                                                           self.work / "update.log")
        self.subprocess_peaks_kb.append(peak_kb)
        if code != 0:
            raise W.CheckFailed(f"repro {' '.join(command)} exited with {code}: "
                                f"{(self.work / 'update.log').read_text()[-2000:]}")
        signalled = CLOCK()
        os.kill(self.servers["live"].proc.pid, signal.SIGHUP)
        target = self.live[0] + 1
        while True:
            status, body = await self.health.call(loadgen.get("/healthz"))
            if status == 200 and json.loads(body)["revision"] == target:
                break
            if CLOCK() - signalled > 60:
                raise W.CheckFailed(f"/healthz never reported revision {target}")
            await asyncio.sleep(0.002)
        end = CLOCK()
        self.go_live.append((signalled, end))
        self.live[0] = target
        self._count(1, 0)
        if traced:
            root = self.tracer.record(tracing.Span(self.tracer.new_id(), "update", None, start, end))
            adopted = self.tracer.adopt_jsonl(spans_path, root)
            last = max(s_.end for s_ in adopted)
            self.tracer.record(tracing.Span(self.tracer.new_id(), "cli.shutdown", root.id, last, reaped))
            self.tracer.record(tracing.Span(self.tracer.new_id(), "serving.store", root.id,
                                            signalled, end))
            children = [s for s in self.tracer.spans if s.parent == root.id]
            self.coverage.append(tracing.covered((start, end), [(s.start, s.end) for s in children])
                                 / (end - start))
            self.traced_revisions.append(target)
        return end - start

    def _check_reads(self) -> None:
        """Every read must return the previous or the new revision's row."""
        expected = {rev: W.Expected(path, None) for rev, path in self.snapshots.items()}
        failed = wrong = total = 0
        for result in self.read_results:
            total += len(result.done)
            for index, done in enumerate(result.done):
                if math.isnan(done):
                    failed += 1
                    continue
                body = result.bodies[index]
                revisions = range(result.tag_sent[index],
                                  min(result.tag_done[index] + 1, max(expected)) + 1)
                if result.status[index] != 200 or not any(
                        body == expected[r].bodies[self.read_users[index]] for r in revisions):
                    failed += 1
                    wrong += 1
        self._count(total, failed)
        if wrong:
            self._error(f"update reads: {wrong} matched neither the previous nor the new revision")
        elif failed:
            self._error(f"update reads: {failed} unanswered")

    def _rows_changed(self) -> None:
        """Attach rows changed per traced delta to its ``serving.update`` span."""
        roots = [s for s in self.tracer.spans if s.name == "update"]
        for root, revision in zip(roots, self.traced_revisions):
            old = W.artifact_rows(self.snapshots[revision - 1])
            new = W.artifact_rows(self.snapshots[revision])
            changed = int((old != new).any(axis=1).sum()) + max(0, new.shape[0] - old.shape[0])
            for span in self.tracer.spans:
                if span.name == "serving.update" and "rows_recomputed" in span.counts \
                        and root.start <= span.start <= root.end:
                    span.counts["rows_changed"] = changed

    # ------------------------------------------------------------------ #
    # Traced output
    # ------------------------------------------------------------------ #
    def _layer_metrics(self) -> dict:
        values = tracing.layer_metrics(self.tracer.spans, W.LAYERS)
        outofcore_wall = values["data.outofcore.wall_s"]
        values["data.outofcore.rows_per_s"] = values["data.outofcore.rows"] / outofcore_wall \
            if outofcore_wall > 0 else 0.0
        recomputed = values["serving.update.rows_recomputed"]
        values["serving.update.changed_share"] = values["serving.update.rows_changed"] / recomputed \
            if recomputed > 0 else 0.0
        total = {key: sum(w[key] for w in self.async_spans) for key in (*W.ASYNC_SAMPLES, "cpu", "wall")}
        values.update({
            "serving.async.wall_s": total["wall"],
            "serving.async.cpu_s": total["cpu"],
            "serving.async.rss_mb": self.server_rss_kb / 1024.0,
            "serving.async.peak_mb": self.server_peak_kb / 1024.0,
            "serving.async.requests": total["requests"],
            "serving.async.server_mean_ms": 1e3 * total["latency_s"] / max(total["requests"], 1.0),
            "serving.async.store_calls": total["batches"] + total["single_rows"],
            "serving.async.rows_per_batch": total["batched_rows"] / max(total["batches"], 1.0),
            "serving.async.fallback_builds": total["fallback_builds"],
            "serving.async.reloads": total["reloads"],
        })
        values["trace.coverage"] = min(self.coverage) if self.coverage else 0.0
        values["trace.build_overhead_s"] = self.build_overhead
        values["trace.update_overhead_s"] = self.update_overhead
        values["failed_share"] = self.failed / max(self.attempted, 1)
        return {name: {"value": float(values[name]), "unit": unit}
                for name, unit in W.per_layer_metrics().items()}
