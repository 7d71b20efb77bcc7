"""The benchmark's workloads: each runs the same timed loop of rounds.

Every workload runs the same loop, so every end-to-end metric exists on
every workload; they differ in their inputs and so in which layers carry
the weight (see :data:`WORKLOADS` and ``perfbench/README.md``).  A round
runs, one after another:

build
    ``repro ingest`` → ``repro run --save-pipeline`` → ``repro compile``
    in-process through ``repro.cli.main`` on a ratings CSV; the compiled
    artifact is opened and its rows byte-compared with the rows
    ``recommend_all`` produced inside ``repro run``.
reference slice
    A fixed-rate slice of the request mix against the serve server
    (``repro serve --async``, one worker, own process, over the first
    build's artifact and pipeline).
ladder rung
    One step of the search over a fixed rate ladder, on the serve server.
delta
    A delta CSV cut from the held-out interactions goes through ``repro
    compile --update --delta`` in a subprocess and a SIGHUP to the live
    server (same command, over the first build's directories), beside a
    fixed-rate read stream against it.

Interleaving the four spreads each metric's samples over the whole run,
so a stretch of noise on a shared host moves a few samples, not the
median.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

import loadgen
import tracing
from tracing import CLOCK

ROOT = Path(__file__).resolve().parents[1]

#: The fixed rate ladder (requests/s, 5% apart) and the p99 limit a rung
#: must meet, with no failures and no growing backlog.  Below capacity a
#: host stall queues requests for about its own length, 20-45 ms on the
#: 2-vCPU machines this was built on; the limit sits above that, so a rung
#: fails on overload rather than on one stall.
LADDER: tuple[int, ...] = tuple(int(round(500 * 1.05 ** k)) for k in range(76))
P99_LIMIT_MS = 50.0
#: Reference rate and read rate during updates: a quarter of the 8k
#: requests/s the async tier sustained in the probe that planned this
#: benchmark, so latency shows service time rather than queueing.
REF_RATE = 2000
READ_RATE = 2000
#: Timed loop shape.  Rounds (build, reference slice, ladder rung, delta)
#: run for ``--seconds`` and at least ``MIN_ROUNDS`` times, then rungs
#: alone until the ladder's search ends.
MIN_ROUNDS = 6
REF_SLICE_S = 1.0
RUNG_S = 1.0
MAX_RUNGS = 9
#: Rows per delta CSV (a chosen size; what the rows are comes from the data).
DELTA_ROWS = 100
#: Request mix shares that no data gives: batch POSTs of ``BATCH_SIZE``
#: users and malformed requests.  Both are guesses, kept small.
BATCH_SHARE = 0.002
BATCH_SIZE = 8
MALFORMED_SHARE = 0.001
TOP_N = 5


@dataclass(frozen=True)
class Workload:
    """One set of inputs: the ratings data and the recommender's scan mode."""

    name: str
    why: str
    data: dict[str, Any]
    dataset_key: str
    exact: bool
    sample_size: int = 500


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "dense",
            "ML-1M profile x1.25, GANC(ItemKNN dense exact, thetaG, Dyn/OSLG): dense gram fit, "
            "OSLG sequential pass and Pipeline.save weigh most",
            {"kind": "profile", "profile": "ml1m", "scale": 1.25},
            "ml1m", True,
        ),
        Workload(
            "sparse",
            "genre-clustered 3000x2000x75k CSV ingested out of core, GANC(ItemKNN scan, "
            "thetaG, Dyn/OSLG): |U| >> S, so ingest, sparse scoring and snapshots weigh most",
            {"kind": "stream", "n_users": 3000, "n_items": 2000, "ratings": 75_000},
            "bench-sparse", False,
        ),
    )
}

#: Per-layer metrics: layer → the counts it reports besides wall/cpu/rss/peak.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli": (),
    "cli.startup": (),
    "cli.shutdown": (),
    "bench.check": (),
    "data.outofcore": ("rows", "rows_per_s"),
    "data.split": (),
    "data.incremental": ("rows",),
    "recommenders": (),
    "preferences": (),
    "coverage": (),
    "ganc.oslg": (),
    "ganc.sequential": ("users",),
    "ganc.snapshot": ("users", "blocks"),
    "pipeline.recommend_all": ("users",),
    "evaluation": (),
    "pipeline.save": ("bytes",),
    "pipeline.load": (),
    "serving.compile": (),
    "serving.update": ("rows_recomputed", "rows_changed", "changed_share", "shards_skipped"),
    "serving.store": (),
    "serving.async": ("requests", "server_mean_ms", "store_calls", "rows_per_batch",
                      "fallback_builds", "reloads"),
}

#: Extra per-layer metrics about the trace itself and the run.
TRACE_METRICS = ("trace.coverage", "trace.build_overhead_s", "trace.update_overhead_s",
                 "failed_share")

END_TO_END = {
    "setup_s": "s", "build_s": "s", "peak_rss_mb": "MB", "f_measure": "ratio",
    "lt_accuracy": "ratio", "coverage": "ratio", "serve_p50_ms": "ms", "serve_p99_ms": "ms",
    "serve_max_rps": "1/s", "update_s": "s", "update_read_p99_ms": "ms", "success_share": "ratio",
}


#: Units of per-layer metrics by name suffix; other counts are ``count``.
UNITS = {"wall_s": "s", "cpu_s": "s", "rss_mb": "MB", "peak_mb": "MB", "bytes": "B",
         "rows_per_s": "1/s", "server_mean_ms": "ms", "changed_share": "ratio",
         "coverage": "ratio", "build_overhead_s": "s", "update_overhead_s": "s",
         "failed_share": "ratio"}


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric name, in output order, with its unit."""
    names = []
    for layer, counts in LAYERS.items():
        names += [f"{layer}.{m}" for m in ("wall_s", "cpu_s", "rss_mb", "peak_mb")]
        names += [f"{layer}.{c}" for c in counts]
    names += TRACE_METRICS
    return {name: UNITS.get(name.rsplit(".", 1)[-1], "count") for name in names}


class CheckFailed(Exception):
    """An output of the program differs from its expected value."""


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
#: Seed of the ratings data and of the pipeline (split, OSLG sample).  It is
#: fixed so that the quality triple is exact for every run: across data
#: seeds F-measure spreads by ~30% at these sizes.  The run's ``--seed``
#: drives the order of the requests and of the deltas.
DATA_SEED = 0


def generate_inputs(workload: Workload, directory: Path) -> dict[str, Any]:
    """Write the workload's base ratings CSV and pipeline spec; returns their facts.

    The users in the simulator's cold pool (the last
    ``repro.simulate.scenarios.COLD_FRACTION`` of the user ids) are held out
    of the base CSV: their ratings are the arrivals of the update phase.
    """
    from repro.simulate.scenarios import COLD_FRACTION

    directory.mkdir(parents=True, exist_ok=True)
    full_path = directory / "all-ratings.csv"
    data = workload.data
    if data["kind"] == "profile":
        from repro.data.synthetic import make_dataset

        ds = make_dataset(data["profile"], scale=data["scale"], seed=DATA_SEED)
        users = np.asarray(ds.user_ids)[ds.user_indices]
        items = np.asarray(ds.item_ids)[ds.item_indices]
        lines = [f"{u},{i},{r:g}\n" for u, i, r in zip(users.tolist(), items.tolist(), ds.ratings.tolist())]
        full_path.write_text("user,item,rating\n" + "".join(lines), encoding="utf-8")
    else:
        from repro.data.synthetic import stream_ratings_csv

        stream_ratings_csv(full_path, n_users=data["n_users"], n_items=data["n_items"],
                           target_ratings=data["ratings"], seed=DATA_SEED)
    with open(full_path, encoding="utf-8") as handle:
        header = next(handle)
        lines = handle.readlines()
    full_path.unlink()
    rows = [line.split(",") for line in lines]
    user_ids = sorted({int(row[0]) for row in rows})
    n_cold = min(max(1, int(round(len(user_ids) * COLD_FRACTION))), len(user_ids) - 1)
    first_cold = user_ids[-n_cold]
    base = [line for line, row in zip(lines, rows) if int(row[0]) < first_cold]
    arrivals = [(int(u), int(i), float(r)) for u, i, r in rows if int(u) >= first_cold]
    base_items = {int(row[1]) for row in rows if int(row[0]) < first_cold}
    if any(item not in base_items for _, item, _ in arrivals):
        raise CheckFailed("an arrival rates an item the base data lacks")
    csv_path = directory / "ratings.csv"
    csv_path.write_text(header + "".join(base), encoding="utf-8")
    spec = {
        "dataset": {"key": workload.dataset_key, "scale": 1.0, "seed": DATA_SEED, "path": None},
        "recommender": {"name": "itemknn", "params": {"exact": workload.exact}},
        "preference": {"name": "thetag", "params": {}},
        "coverage": {"name": "dyn", "params": {}},
        "ganc": {"optimizer": "oslg", "sample_size": workload.sample_size},
        "evaluation": {"n": TOP_N},
        "seed": DATA_SEED,
    }
    return {"csv": csv_path, "arrivals": arrivals, "spec": spec,
            "sizes": {"base_ratings": len(base), "arrival_users": n_cold,
                      "arrival_ratings": len(arrivals)}}


def activity(split) -> np.ndarray:
    """Ratings per user (train + test) of a split: the users' request weights."""
    n = split.train.n_users
    return (np.bincount(split.train.user_indices, minlength=n)
            + np.bincount(split.test.user_indices, minlength=n)).astype(np.float64)


def make_deltas(split, arrivals: list[tuple[int, int, float]], seed: int):
    """Yield the held-out interactions in a seeded random order, ``DELTA_ROWS`` at a time.

    The pool is the split's test interactions (ratings by existing users
    that the fit held out) plus every rating of the held-out arrival users,
    shuffled the way ``repro.simulate``'s replay scenario shuffles a test
    set.  A delta's mix of ratings and arrivals is the data's; no row is
    ever sent twice.
    """
    test = split.test
    users = np.asarray(test.user_ids)[test.user_indices].tolist()
    items = np.asarray(test.item_ids)[test.item_indices].tolist()
    pool = list(zip(users, items, test.ratings.tolist())) + list(arrivals)
    order = np.random.default_rng([seed, 2024]).permutation(len(pool))
    for start in range(0, len(order) - DELTA_ROWS + 1, DELTA_ROWS):
        yield [pool[k] for k in order[start:start + DELTA_ROWS].tolist()]


# --------------------------------------------------------------------------- #
# Build phase
# --------------------------------------------------------------------------- #
def run_cli(argv: list[str], tracer: tracing.Tracer | None) -> None:
    """Run one ``repro`` command in-process, its output kept off our stdout."""
    import repro.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if tracer is None:
            code = repro.cli.main(argv)
        else:
            with tracer.span("cli"):
                code = repro.cli.main(argv)
    if code != 0:
        raise CheckFailed(f"repro {' '.join(argv)} exited with {code}: {out.getvalue()[-2000:]}")


@contextlib.contextmanager
def capture_recommend_all():
    """Keep a copy of every ``Pipeline.recommend_all`` result in the block."""
    from repro.pipeline.pipeline import Pipeline

    original = Pipeline.__dict__["recommend_all"]
    rows: list[np.ndarray] = []

    def capturing(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        rows.append(np.array(result.items, copy=True))
        return result

    Pipeline.recommend_all = capturing
    try:
        yield rows
    finally:
        Pipeline.recommend_all = original


def check_compiled_rows(artifact: Path, in_run: np.ndarray) -> tuple[np.ndarray, str | None]:
    """Open the artifact; its rows must be byte-equal to the in-run rows.

    Returns the compiled rows and an error message (``None`` when equal).
    """
    from repro.serving import open_store

    store = open_store(artifact)
    compiled = store.top_n(np.arange(store.coverage, dtype=np.int64))
    expected = in_run[: store.coverage]
    if compiled.dtype != expected.dtype or compiled.tobytes() != expected.tobytes():
        return compiled, f"compiled rows of {artifact} differ from the in-run recommend_all rows"
    return compiled, None


def build_once(inputs: dict[str, Any], directory: Path, tracer: tracing.Tracer | None) -> dict:
    """CSV → compiled, checked artifact through the CLI; returns paths and rows."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    store, pipe, art = directory / "store", directory / "pipeline", directory / "artifact"
    spec = json.loads(json.dumps(inputs["spec"]))
    spec["dataset"]["path"] = str(store)
    spec_path = directory / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=2), encoding="utf-8")

    start = CLOCK()
    run_cli(["ingest", "--csv", str(inputs["csv"]), "--output", str(store)], tracer)
    with capture_recommend_all() as captured:
        run_cli(["run", "--config", str(spec_path), "--save-pipeline", str(pipe)], tracer)
    in_run = captured[0]
    max_users = (9 * in_run.shape[0]) // 10
    run_cli(["compile", "--pipeline", str(pipe), "--artifact", str(art),
             "--max-users", str(max_users)], tracer)
    if tracer is None:
        compiled, error = check_compiled_rows(art, in_run)
    else:
        with tracer.span("bench.check"):
            compiled, error = check_compiled_rows(art, in_run)
    end = CLOCK()
    return {"wall": end - start, "start": start, "end": end, "pipeline": pipe, "artifact": art,
            "in_run": in_run, "compiled": compiled, "coverage": max_users, "error": error}


def quality(build: dict) -> dict[str, float]:
    """Accuracy / novelty / coverage of the served table.

    Covered users' rows come from the compiled artifact; the rest are the
    in-run rows the live fallback serves (byte-checked over HTTP).
    """
    from repro.evaluation.evaluator import Evaluator
    from repro.pipeline.persistence import load_split_npz
    from repro.pipeline.spec import PipelineSpec
    from repro.recommenders.base import FittedTopN

    spec = PipelineSpec.from_json_file(build["pipeline"] / "spec.json").evaluation
    split = load_split_npz(build["pipeline"] / "split.npz")
    table = build["in_run"].copy()
    table[: build["coverage"]] = build["compiled"]
    evaluator = Evaluator(split, n=spec.n, relevance_threshold=spec.relevance_threshold, beta=spec.beta)
    report = evaluator.evaluate_recommendations(FittedTopN(items=table), algorithm="bench").report
    return {"f_measure": report.f_measure, "lt_accuracy": report.lt_accuracy,
            "coverage": report.coverage}


# --------------------------------------------------------------------------- #
# Server process
# --------------------------------------------------------------------------- #
def child_env() -> dict[str, str]:
    """Environment for ``repro`` subprocesses: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Server:
    """``repro serve --async`` in its own process, stopped and reaped on exit."""

    def __init__(self, artifact: Path, pipeline: Path, log_path: Path) -> None:
        self.cmd = [sys.executable, "-m", "repro", "serve", "--async", "--artifact", str(artifact),
                    "--pipeline", str(pipeline), "--port", "0"]
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, timeout: float = 120.0) -> float:
        """Start and wait until ``/healthz`` answers; returns the seconds taken."""
        start = CLOCK()
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(self.cmd, stdout=self._log, stderr=subprocess.STDOUT,
                                     env=child_env(), cwd=ROOT)
        deadline = start + timeout
        while not self.port:
            if self.proc.poll() is not None or CLOCK() > deadline:
                raise CheckFailed(f"server did not start: {self.log_path.read_text()[-2000:]}")
            text = self.log_path.read_text(encoding="utf-8", errors="replace")
            marker = text.find("listening on http://")
            if marker >= 0 and "\n" in text[marker:]:
                address = text[marker + 20:].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
            else:
                time.sleep(0.01)
        import http.client

        while True:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    conn.close()
                    break
                conn.close()
            except OSError:
                pass
            if CLOCK() > deadline:
                raise CheckFailed("server never answered /healthz")
            time.sleep(0.01)
        return CLOCK() - start

    def stop(self) -> None:
        """SIGINT, then SIGKILL after 10 s; always waits for the process."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc is not None:
            self._log.close()


# --------------------------------------------------------------------------- #
# Serve phase: request mix and expected bodies
# --------------------------------------------------------------------------- #
#: Malformed requests and the status each must get (the connection stays open).
MALFORMED: tuple[tuple[bytes, int], ...] = (
    (loadgen.get("/recommend?user=abc"), 400),
    (loadgen.get("/recommend"), 400),
    (loadgen.get("/recommend?user=99999999"), 404),
    (loadgen.get("/nope"), 404),
    (loadgen.post("/recommend/batch", b"{"), 400),
    (loadgen.get("/recommend?user=1&n=0"), 400),
    (loadgen.post("/recommend", b""), 405),
)


class Expected:
    """Expected ``/recommend`` bodies, built with the serving payload helpers.

    Covered users' payloads come from a store opened on the artifact;
    uncovered users' from the pipeline rows the live fallback serves.
    """

    def __init__(self, artifact: Path, fallback_rows: np.ndarray | None) -> None:
        from repro.serving import open_store
        from repro.serving.service import recommend_payload

        store = open_store(artifact)
        self.coverage = store.coverage
        self.payloads: dict[int, dict] = {}
        for user in range(store.coverage):
            items, scores, source = store.lookup(user)
            self.payloads[user] = recommend_payload(store, user, None, items, scores, source)
        if fallback_rows is not None:
            for user in range(store.coverage, fallback_rows.shape[0]):
                self.payloads[user] = recommend_payload(store, user, None, fallback_rows[user],
                                                        None, "live")
        from repro.serving.service import recommend_body

        self.bodies = {user: recommend_body(p) for user, p in self.payloads.items()}

    def batch_body(self, users: list[int]) -> bytes:
        """The ``POST /recommend/batch`` body for ``users``."""
        from repro.serving.service import json_body

        return json_body({"count": len(users), "results": [self.payloads[u] for u in users]})


class Mix:
    """Request plans: GETs weighted by user activity, plus batch and malformed requests.

    A user is asked for in proportion to their ratings in the base data;
    users past the artifact's coverage get the live fallback.
    """

    def __init__(self, rng: np.random.Generator, coverage: int, weights: np.ndarray) -> None:
        self.rng, self.coverage, self.n_users = rng, coverage, weights.size
        self.cdf = np.cumsum(weights / weights.sum())
        self.covered_cdf = np.cumsum(weights[:coverage] / weights[:coverage].sum())

    def users(self, count: int) -> np.ndarray:
        """``count`` users drawn by activity."""
        return np.minimum(np.searchsorted(self.cdf, self.rng.random(count)), self.n_users - 1)

    def covered(self, count: int) -> np.ndarray:
        """``count`` covered users drawn by activity."""
        return np.minimum(np.searchsorted(self.covered_cdf, self.rng.random(count)), self.coverage - 1)

    def plan(self, count: int) -> tuple[list[bytes], list[tuple], list[int]]:
        """``count`` requests, what each expects, and its connection slot.

        Covered GETs take the server's coalesced fast path and go on slot 0;
        everything else (fallback GETs, batch POSTs, malformed requests)
        takes the general path and goes on slot 1.  Mixing the two paths
        on one pipelined connection lets the server answer out of order
        (see README, "Known defects"), so the mix keeps them apart.
        """
        users = self.users(count).tolist()
        draws = self.rng.random(count).tolist()
        requests, kinds = [], []
        for i, (user, draw) in enumerate(zip(users, draws)):
            if draw < BATCH_SHARE:
                batch = self.users(BATCH_SIZE).tolist()
                requests.append(loadgen.post("/recommend/batch", json.dumps({"users": batch}).encode()))
                kinds.append(("batch", batch))
            elif draw < BATCH_SHARE + MALFORMED_SHARE:
                request, status = MALFORMED[i % len(MALFORMED)]
                requests.append(request)
                kinds.append(("bad", status))
            else:
                requests.append(loadgen.get(f"/recommend?user={user}"))
                kinds.append(("get", user))
        return requests, kinds, slots_for(kinds, self.coverage)


def slots_for(kinds: list[tuple], coverage: int) -> list[int]:
    """Slot 0 for covered GETs (fast path), slot 1 for the rest."""
    return [0 if kind[0] == "get" and kind[1] < coverage else 1 for kind in kinds]


def every_user_plan(mix: Mix) -> tuple[list[bytes], list[tuple], list[int]]:
    """One GET per user, a batch and every malformed request: the untimed check pass."""
    requests = [loadgen.get(f"/recommend?user={u}") for u in range(mix.n_users)]
    kinds: list[tuple] = [("get", u) for u in range(mix.n_users)]
    batch = list(range(0, mix.n_users, max(1, mix.n_users // 16)))
    requests.append(loadgen.post("/recommend/batch", json.dumps({"users": batch}).encode()))
    kinds.append(("batch", batch))
    for request, status in MALFORMED:
        requests.append(request)
        kinds.append(("bad", status))
    return requests, kinds, slots_for(kinds, mix.coverage)


def verify(result: loadgen.PhaseResult, kinds: list[tuple], expected: Expected) -> tuple[int, int]:
    """Returns ``(failed, wrong)``: failed counts timeouts and wrong answers."""
    failed = wrong = 0
    for index, kind in enumerate(kinds[: len(result.done)]):
        if math.isnan(result.done[index]):
            failed += 1
            continue
        status, body = result.status[index], result.bodies[index]
        if kind[0] == "bad":
            ok = status == kind[1]
        elif kind[0] == "get":
            ok = status == 200 and body == expected.bodies[kind[1]]
        else:
            ok = status == 200 and body == expected.batch_body(kind[1])
        if not ok:
            failed += 1
            wrong += 1
    return failed, wrong


def latency_stats(result: loadgen.PhaseResult) -> dict[str, float]:
    """p50/p99 with unanswered requests counted as infinitely late."""
    lat = result.latencies_ms + [math.inf] * result.timed_out
    return {"p50": loadgen.percentile(lat, 50), "p99": loadgen.percentile(lat, 99),
            "count": len(lat), "late_p99_ms": loadgen.percentile([x * 1e3 for x in result.late], 99)}


#: Requests per latency window, so a reference slice is one window: its
#: p99 has twenty samples beyond it.
WINDOW = 2000
#: Reads due this close to a delta going live count as reads during the update.
GO_LIVE_MARGIN_S = 0.25


def windows(result: loadgen.PhaseResult) -> list[dict[str, float]]:
    """p50 and p99 of each of the consecutive windows of at least ``WINDOW``
    requests that ``result`` splits into."""
    count = max(1, len(result.due) // WINDOW)
    edges = [len(result.due) * i // count for i in range(count + 1)]
    return [latency_stats(dataclasses.replace(result, due=result.due[a:b], done=result.done[a:b]))
            for a, b in zip(edges, edges[1:])]


def go_live_p99(result: loadgen.PhaseResult, go_live: list[tuple[float, float]]) -> list[float]:
    """Per delta, the p99 (ms, unanswered = inf) of reads due within
    ``GO_LIVE_MARGIN_S`` of it going live: from before its SIGHUP to after
    ``/healthz`` confirmed."""
    out = []
    for signalled, live in go_live:
        window = [math.inf if math.isnan(done) else (done - due) * 1e3
                  for due, done in zip(result.due, result.done)
                  if signalled - GO_LIVE_MARGIN_S <= due <= live + GO_LIVE_MARGIN_S]
        out.append(loadgen.percentile(window, 99))
    return out


def rung_passes(result: loadgen.PhaseResult, failed: int) -> bool:
    """p99 within the limit, nothing failed, and no growing backlog."""
    in_flight_at_limit = result.rate * P99_LIMIT_MS / 1e3
    return (failed == 0 and latency_stats(result)["p99"] <= P99_LIMIT_MS
            and result.backlog_end <= max(in_flight_at_limit, 1))


class Ladder:
    """Binary search for the highest ``LADDER`` rate whose rung passes.

    A rung that fails is tried once more at the next step, a round later,
    so a stretch of host noise does not decide it alone.  The search stops
    after ``MAX_RUNGS`` rungs.
    """

    def __init__(self, lo: int) -> None:
        self.lo, self.hi, self.retry, self.rungs = lo, len(LADDER), False, 0

    @property
    def done(self) -> bool:
        """Whether the search has converged or run out of rungs."""
        return self.hi - self.lo <= 1 or self.rungs >= MAX_RUNGS

    @property
    def rate(self) -> int:
        """The rate of the next rung to run."""
        return LADDER[(self.lo + self.hi) // 2]

    def record(self, passed: bool) -> None:
        """Move the search on after a rung at :attr:`rate`."""
        mid = (self.lo + self.hi) // 2
        self.rungs += 1
        if passed:
            self.lo, self.retry = mid, False
        elif self.retry:
            self.hi, self.retry = mid, False
        else:
            self.retry = True

    @property
    def max_rps(self) -> float:
        """The highest rate that passed (0 if none did)."""
        return float(LADDER[self.lo]) if self.lo >= 0 else 0.0


async def scrape(client: loadgen.Client) -> dict[str, float]:
    """The server's ``/metrics`` samples."""
    from repro.serving.metrics import parse_metrics

    status, body = await client.call(loadgen.get("/metrics"))
    if status != 200:
        raise CheckFailed(f"/metrics answered {status}")
    return parse_metrics(body.decode("utf-8"))


#: ``/metrics`` samples the ``serving.async`` layer is computed from.
ASYNC_SAMPLES = {
    "requests": "repro_request_latency_seconds_count",
    "latency_s": "repro_request_latency_seconds_sum",
    "batches": "repro_coalesce_batches",
    "batched_rows": "repro_coalesce_batched_rows",
    "single_rows": "repro_coalesce_single_rows",
    "fallback_builds": "repro_fallback_builds_total",
    "reloads": "repro_reloads_total",
}


def async_window(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """What the server counted between two ``/metrics`` scrapes."""
    return {key: after.get(name, 0.0) - before.get(name, 0.0) for key, name in ASYNC_SAMPLES.items()}


# --------------------------------------------------------------------------- #
# Update phase helpers
# --------------------------------------------------------------------------- #
def run_subprocess(cmd: list[str], log_path: Path) -> tuple[int, int, float]:
    """Run ``cmd`` to completion; returns ``(exit code, peak RSS in KiB, reaped at)``."""
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = CLOCK()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss, reaped


def artifact_rows(directory: Path) -> np.ndarray:
    """All stored item rows of an artifact, in user order."""
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    return np.concatenate([np.load(directory / s["items"]) for s in manifest["shards"]])


def check_final_artifact(artifact: Path, pipeline: Path, base_split, delta_paths: list[Path]) -> None:
    """The updated artifact must equal a from-scratch compile of the extended split."""
    from repro.data.incremental import extend_split_interactions, read_delta_csv
    from repro.pipeline import Pipeline
    from repro.pipeline.persistence import load_split_npz
    from repro.pipeline.spec import PipelineSpec
    from repro.serving import compile_artifact

    split = base_split
    for path in delta_paths:
        split = extend_split_interactions(split, read_delta_csv(path)).split
    manifest = json.loads((artifact / "manifest.json").read_text(encoding="utf-8"))
    fresh = artifact.parent / "artifact-from-scratch"
    shutil.rmtree(fresh, ignore_errors=True)
    spec = PipelineSpec.from_json_file(pipeline / "spec.json")
    compile_artifact(Pipeline(spec).fit(split), fresh, n=manifest["n"],
                     shard_size=manifest["shard_size"], max_users=manifest["n_users"])
    other = json.loads((fresh / "manifest.json").read_text(encoding="utf-8"))
    for doc in (manifest, other):
        doc.pop("revision")
    if manifest != other:
        raise CheckFailed("updated manifest differs from a from-scratch compile")
    for shard in manifest["shards"]:
        for key in ("items", "scores"):
            if (artifact / shard[key]).read_bytes() != (fresh / shard[key]).read_bytes():
                raise CheckFailed(f"updated shard {shard[key]} differs from a from-scratch compile")
    saved = load_split_npz(pipeline / "split.npz").train
    for ids in (saved.user_ids, saved.item_ids):
        if len(set(ids)) != len(ids):
            raise CheckFailed(f"saved raw-id map has duplicates: {len(ids)} ids, {len(set(ids))} unique")
    if saved.n_users != split.train.n_users:
        raise CheckFailed("saved pipeline and extended split disagree on the user count")


def median(values: list[float]) -> float:
    """Median of a non-empty list."""
    return float(statistics.median(values))
