"""nodemend benchmark: two workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload offline|update --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout. It builds nothing: the program is the
``src/nodemend`` package of that checkout, imported in one process, and
the benchmark calls the functions the CLI commands call.

Workloads (one process, one client, closed loop; see README.md for why):

* ``offline`` - the README walkthrough at production scale on the default
  preset: train on 20 000 events, then in three rounds compare six
  policies on 10 000 fresh events and analyze the newest 5 000 training
  events.
* ``update``  - on the two-regime preset a child trains the current model
  on an old 5 000-event window; the timed process analyzes it, retrains on
  the recent window behind the holdout gate (twice, early and late in the
  run) and analyzes the candidate three times.

Between those phases both workloads run ``recommend`` sessions (load the
model, then decide events one at a time). Short steps are repeated and
spread over the run, and the gated figures are their slowest sample (p90
for the decisions), which follow the machine's slow mode rather than the
moment a sample happened to fall in. A pass repeats until ``--seconds``
have passed since the timed part began (at least once). Set-up, which writes the inputs in a
child process, runs three times and reports the median.

The last line of standard output is the JSON result. With ``--trace 0``
it holds the end-to-end metrics; with ``--trace 1`` the program's layer
entry points are wrapped and it holds the per-layer metrics instead. A
fuller record (environment, digests, extra figures) is written under
``.perfbench_work/results`` and the spans under ``.perfbench_work/traces``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import layers  # noqa: E402
from child import sub_seeds  # noqa: E402
from tracer import Tracer, paused, span_cost_s  # noqa: E402

WORKLOADS = ("offline", "update")
E2E = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_s": "s",
    "main_max_s": "s",
    "decide_p90_ms": "ms",
    "engine_avd": "downtime",
    "psi": "downtime2",
}
SETUP_REPS = 3
COMPARE_EVENTS = 10000
# offline analyzes as many of its newest training events as update has in
# its holdout, so that both runs fit the time they are given
ANALYZE_EVENTS = 5000
# decisions per recommend session; a pass runs four (offline) or five (update)
PROBE_DECISIONS = 50
CHILD_TIMEOUT_S = 150
ENV_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# environment and identity


def code_id() -> str:
    """sha256 over the Python sources of the program and the benchmark."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(np) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        blas = {k: v for k, v in blas.items() if k in ("name", "version", "openblas configuration")}
    except (TypeError, AttributeError):
        blas = None
    commit = dirty = None
    top = _git("rev-parse", "--show-toplevel")
    if top and os.path.realpath(top) == os.path.realpath(ROOT):
        commit = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in ENV_THREAD_VARS},
        "git_commit": commit,
        "git_dirty": dirty,
        "code_id": code_id(),
    }


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The ceil(q * n)-th smallest value, the program's percentile convention."""
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# one run


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work_dir: str) -> None:
        import numpy as np

        import nodemend.config
        import nodemend.decisions
        import nodemend.dml
        import nodemend.domain
        import nodemend.evaluation
        import nodemend.forest
        import nodemend.interpret
        import nodemend.modelio

        self.np = np
        self.nm = nodemend
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.dir = work_dir
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failures: list[str] = []
        self.times: dict[str, list[float]] = defaultdict(list)
        self.latencies: list[float] = []
        self.digests: dict[str, str] = {}
        self.extra: dict = {}
        self.decision_cfg = nodemend.decisions.DecisionConfig()
        # checks call the originals, so the traced run counts program work only
        self.ref_batch = nodemend.dml.estimate_ite_batch
        self.ref_decide = nodemend.decisions.decide
        self.ref_psi = nodemend.dml.psi_loss

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    @contextmanager
    def phase(self, name: str):
        """Time one program operation (and trace it as a root span)."""
        self.attempted += 1
        sid = self.tracer.open(f"phase.{name}") if self.tracer else None
        start = time.perf_counter()
        try:
            yield
        finally:
            self.times[name].append(time.perf_counter() - start)
            if self.tracer:
                self.tracer.close(sid)

    def record_digest(self, name: str, path: str) -> None:
        digest = sha256_file(path)
        previous = self.digests.setdefault(name, digest)
        self.check(previous == digest, f"{name}: digest differs from the first one written in this run")

    # -- set-up ----------------------------------------------------------------

    def child(self, *args: str) -> str:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        try:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), *args],
                cwd=ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child {args[0]} timed out") from exc
        if out.returncode != 0:
            raise BenchError(f"child {args[0]} failed:\n{out.stderr}")
        return out.stdout

    def setup(self) -> None:
        """Write the inputs SETUP_REPS times; they must be byte-identical."""
        reps, digests = [], []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            self.child("inputs", "--workload", self.workload, "--seed", str(self.seed), "--out", self.dir)
            reps.append(time.perf_counter() - start)
            digests.append({n: sha256_file(self.path(n)) for n in sorted(os.listdir(self.dir))})
        self.setup_s = statistics.median(reps)
        self.extra["setup_reps_s"] = reps
        self.check(all(d == digests[0] for d in digests), "set-up inputs differ between repetitions")
        self.digests["inputs"] = hashlib.sha256(json.dumps(digests[0], sort_keys=True).encode()).hexdigest()
        self.config = self.load_config("config.json")

    def load_config(self, name: str):
        with open(self.path(name), encoding="utf-8") as fh:
            return self.nm.config.parse_experiment_config(json.load(fh))

    def train_in_child(self, data: str, out: str) -> None:
        """Fit and save a model in a child; ``train_s`` is its own timing."""
        reply = json.loads(self.child("train", "--dir", self.dir, "--data", self.path(data), "--out", self.path(out)))
        self.times["train"].append(reply["train_s"])
        self.attempted += 1

    # -- shared steps ------------------------------------------------------------

    def read_events(self, name: str):
        with paused(self.tracer):
            return self.nm.modelio.read_events_jsonl(self.path(name))

    def probe(self, model_path: str, events):
        """One `nodemend recommend` session: load the model, then decide
        PROBE_DECISIONS events one at a time (closed loop), logging each.

        Probes are spread between a workload's long phases, so the load and
        latency figures sample the machine across the whole run.
        """
        nm = self.nm
        with self.phase("load"):
            model = nm.modelio.load_model(model_path)
        served = []
        for _ in range(PROBE_DECISIONS):
            idx = len(self.latencies) % len(events)
            event = events[idx]
            if self.tracer:
                self.tracer.request = len(self.latencies)
            t0 = time.perf_counter()
            ite = nm.dml.estimate_ite(model, event.signals)
            decision = nm.decisions.decide(ite, event.signals, self.decision_cfg)
            self.logger.log(
                nm.modelio.ActionLogRecord(
                    unhealthy_timestamp=event.timestamp,
                    action_timestamp=event.timestamp + 1,
                    experiment_name="perfbench",
                    model_type=model.final_stage,
                    model_name="nodemend",
                    model_version=str(model.metadata.get("version", "")),
                    tau=ite.tau,
                    tau_lower=ite.tau_lower,
                    tau_upper=ite.tau_upper,
                    action=int(decision.action),
                    source=decision.source.value,
                    reason=decision.reason,
                    node_id=event.node_id,
                    event_id=event.event_id,
                )
            )
            self.latencies.append(time.perf_counter() - t0)
            served.append((idx, decision))
        if self.tracer:
            self.tracer.request = None
        self.attempted += PROBE_DECISIONS
        self.check_served(model, events, served)
        return model

    def check_served(self, model, events, served) -> None:
        """Each decision must equal decide() on the batch estimate of its event."""
        indices = sorted({idx for idx, _ in served})
        with paused(self.tracer):
            estimates = dict(zip(indices, self.ref_batch(model, [events[i].signals for i in indices])))
        for idx, decision in served:
            expected = self.ref_decide(estimates[idx], events[idx].signals, self.decision_cfg)
            self.check(
                (decision.action, decision.source) == (expected.action, expected.source),
                f"decision on {events[idx].event_id} differs from the batch path",
            )

    def analyze(self, model, events, truth_name: str) -> dict:
        """`nodemend eval`, `counterfactual` and `interpret` on one event set.

        Returns the program's outputs, so that repeated analyses can be
        compared exactly.
        """
        nm = self.nm
        with self.phase("analyze"):
            truths = nm.modelio.read_truth_jsonl(self.path(truth_name))
            psi = nm.dml.psi_loss(model, events)
            naive = nm.evaluation.naive_effect(events)
            adjusted = nm.evaluation.adjusted_effect(model, events)
            cf = nm.evaluation.counterfactual_analysis(model, events, truths)
            _, policy = nm.interpret.interpret_model(model, events, max_depth=3)
            curve = nm.interpret.cate_by_feature(model, events, "vm_count", 8)
        self.check(math.isfinite(psi), "psi is not finite")
        fractions = cf.agree_fraction + cf.switch_to_reboot_fraction + cf.switch_to_redeploy_fraction
        self.check(abs(fractions - 1.0) < 1e-9, "counterfactual fractions do not sum to 1")
        self.check(sum(n for _, _, n in curve) == len(events), "effect curve does not cover every event")
        return {"psi": psi, "naive": naive, "adjusted": adjusted, "counterfactual": cf, "policy": policy, "curve": curve}

    def accuracy(self, model, events, truth_name: str, adjusted: float) -> dict:
        """The model's estimates against each event's potential outcomes."""
        np = self.np
        with paused(self.tracer):
            truths = self.nm.modelio.read_truth_jsonl(self.path(truth_name))
            estimates = self.ref_batch(model, [e.signals for e in events])
        tau = np.asarray([e.tau for e in estimates])
        lower = np.asarray([e.tau_lower for e in estimates])
        upper = np.asarray([e.tau_upper for e in estimates])
        by_id = {t.event_id: t for t in truths}
        y0 = np.asarray([by_id[e.event_id].y_reboot for e in events])
        y1 = np.asarray([by_id[e.event_id].y_redeploy for e in events])
        true_tau = y1 - y0
        chosen = np.asarray(
            [int(self.ref_decide(est, e.signals, self.decision_cfg).action) for est, e in zip(estimates, events)]
        )
        vms = np.asarray([e.signals.vm_count for e in events], dtype=np.float64)
        downtime = np.where(chosen == 1, y1, y0)
        self.check(adjusted == float(np.mean(tau)), "adjusted effect differs from the batch estimates")
        return {
            "tau_rmse": float(np.sqrt(np.mean((tau - true_tau) ** 2))),
            "coverage": float(np.mean((lower <= true_tau) & (true_tau <= upper))),
            "nominal_coverage": estimates[0].confidence_level,
            "engine_avd": float(np.sum(downtime * vms) / np.sum(vms)),
        }

    # -- workloads --------------------------------------------------------------

    def passes(self, deadline: float, body) -> None:
        n = 0
        while n == 0 or time.perf_counter() < deadline:
            body()
            n += 1
        self.extra["passes"] = n

    def run_offline(self, deadline: float) -> dict:
        nm = self.nm
        cmp_cfg = self.load_config("compare_config.json")
        held = self.read_events("held.jsonl")
        model_path = self.path("model.bin")
        out: dict = {}

        def compare():
            with self.phase("main"):
                loaded = nm.modelio.load_model(model_path)
                report = nm.evaluation.run_policy_comparison(
                    list(layers.POLICIES), COMPARE_EVENTS, cmp_cfg.sim, cmp_cfg.seed,
                    model=loaded, decision_config=cmp_cfg.decision,
                )
                nm.modelio.atomic_write_text(
                    self.path("report.json"), json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
                )
            self.record_digest("report.json", self.path("report.json"))
            return loaded, report

        def one_pass() -> None:
            with self.phase("train"):
                events = nm.modelio.read_events_jsonl(self.path("train.jsonl"))
                model = nm.dml.train_dml(events, self.config.train, self.config.sim.schema())
                nm.modelio.save_model(model, model_path)
            self.record_digest("model.bin", model_path)
            recent = events[-ANALYZE_EVENTS:]
            # three rounds spread the short steps over the run; the first
            # analyzes the fresh model, the others the reloaded one
            analyses = []
            for i in range(3):
                self.probe(model_path, held)
                loaded, report = compare()
                analyses.append(self.analyze(model if i == 0 else loaded, recent, "train_truth.jsonl"))
            self.probe(model_path, held)
            self.check(all(a == analyses[0] for a in analyses), "the fresh and reloaded models analyze differently")
            out.update(self.accuracy(model, recent, "train_truth.jsonl", analyses[0]["adjusted"]))
            # psi over all 20 000 training events: on 5 000 its spread over
            # seeds reaches the bound, as the default preset's outcomes are
            # heavy-tailed
            with paused(self.tracer):
                out["psi"] = self.ref_psi(model, events)
            self.extra["psi_analyzed"] = analyses[0]["psi"]

            sample = [e.signals for e in held] + [e.signals for e in events[:1000]]
            with paused(self.tracer):
                fresh, reread = self.ref_batch(model, sample), self.ref_batch(loaded, sample)
            self.check(
                all((a.tau, a.tau_lower, a.tau_upper) == (b.tau, b.tau_lower, b.tau_upper) for a, b in zip(fresh, reread)),
                "reloaded model.bin does not reproduce the in-memory estimates bitwise",
            )
            self.check(nm.forest.audit_honesty(loaded.forest), "honesty audit failed")
            rows = report.rows
            self.check(set(rows) == set(layers.POLICIES), f"report policies {sorted(rows)}")
            oracle = rows["oracle"].avd_mean
            self.check(all(oracle <= r.avd_mean for r in rows.values()), "oracle AVD is not the lowest")
            out["engine_avd"] = rows["engine"].avd_mean
            self.extra["engine_air"] = rows["engine"].air
            self.extra["policy_avd"] = {name: r.avd_mean for name, r in sorted(rows.items())}

        self.passes(deadline, one_pass)
        return out

    def run_update(self, deadline: float) -> dict:
        nm = self.nm
        self.train_in_child("train.jsonl", "current.bin")
        held = self.read_events("held.jsonl")
        model_path = self.path("model.bin")
        out: dict = {}

        def update(current):
            with self.phase("main"):
                recent = nm.modelio.read_events_jsonl(self.path("recent.jsonl"))
                holdout = nm.modelio.read_events_jsonl(self.path("held.jsonl"))
                result = nm.modelio.update_model(current, recent, holdout)
                deployed = result.candidate if result.deployed else current
                nm.modelio.save_model(deployed, model_path)
            self.record_digest("model.bin", model_path)
            return result, holdout

        def one_pass() -> None:
            current = self.probe(self.path("current.bin"), held)
            # the current model is analyzed once before the update, the
            # candidate three times after it; the update runs twice, early
            # and late in the pass, and must give the same model both times
            current_analysis = self.analyze(current, held, "held_truth.jsonl")
            result, holdout = update(current)
            self.check(result.candidate is not None, f"no candidate: {result.reason}")
            psi_cur, psi_cand = result.psi_current, result.psi_candidate
            self.check(
                psi_cur is not None and psi_cand is not None and math.isfinite(psi_cur) and math.isfinite(psi_cand),
                "update gate psi values are not finite",
            )
            self.check(result.deployed == (psi_cand < psi_cur), "gate decision disagrees with the psi values")
            analyses = []
            for i in range(3):
                self.probe(model_path, held)
                analyses.append(self.analyze(result.candidate, holdout, "held_truth.jsonl"))
                if i == 1:
                    again, _ = update(current)
                    self.check(
                        (again.deployed, again.psi_current, again.psi_candidate) == (result.deployed, psi_cur, psi_cand),
                        "a repeated update gives another gate result",
                    )
            self.probe(model_path, held)
            self.check(all(a == analyses[0] for a in analyses), "a repeated analysis differs")
            self.check(analyses[0]["psi"] == psi_cand, "candidate psi differs from the gate's")
            self.check(current_analysis["psi"] == psi_cur, "current model's psi differs from the gate's")
            out.update(self.accuracy(result.candidate, holdout, "held_truth.jsonl", analyses[0]["adjusted"]))
            out["psi"] = psi_cand
            current_accuracy = self.accuracy(current, held, "held_truth.jsonl", current_analysis["adjusted"])
            self.extra.update(deployed=result.deployed, current_model={"psi": psi_cur, **current_accuracy})

        self.passes(deadline, one_pass)
        return out

    # -- result -----------------------------------------------------------------

    def execute(self) -> dict:
        self.setup()
        if self.tracer:
            layers.install(self.tracer, self.nm)
        log_path = self.path("actions.jsonl")
        timed_start = time.perf_counter()
        try:
            with self.nm.modelio.ActionLogger(log_path) as self.logger:
                accuracy = getattr(self, f"run_{self.workload}")(timed_start + self.seconds)
        finally:
            if self.tracer:
                self.tracer.restore()
        self.extra["wall_s"] = time.perf_counter() - timed_start
        logged = len(self.nm.modelio.read_action_log(log_path))
        self.check(logged == len(self.latencies), f"action log has {logged} records for {len(self.latencies)} decisions")
        lat_ms = sorted(x * 1e3 for x in self.latencies)
        self.extra.update(
            decisions=len(lat_ms),
            decide_p50_ms=nearest_rank(lat_ms, 0.50),
            decide_p99_ms=nearest_rank(lat_ms, 0.99),
            phase_s=dict(self.times),
        )
        for key in ("tau_rmse", "coverage", "nominal_coverage"):
            self.extra[key] = accuracy[key]
        self.extra["model_bytes"] = os.path.getsize(self.path("model.bin"))
        for name in ("load", "analyze"):
            self.extra[f"{name}_mean_s"] = statistics.fmean(self.times[name])
            self.extra[f"{name}_max_s"] = max(self.times[name])
        self.extra["decide_mean_ms"] = statistics.fmean(lat_ms)
        # On a shared 2-vCPU VM the host switches for a minute or more between
        # a slow mode and one about 1.3 times faster, which speeds up
        # interpreted code most. Over ten runs, means and medians of the short
        # steps follow the share of runs in the fast mode (spreads up to 0.32);
        # the slowest samples and p90 follow the slow mode nearly every run
        # visits.
        return {
            "setup_s": self.setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "train_s": statistics.fmean(self.times["train"]),
            "main_max_s": max(self.times["main"]),
            "decide_p90_ms": nearest_rank(lat_ms, 0.90),
            "engine_avd": accuracy["engine_avd"],
            "psi": accuracy["psi"],
        }


def check_digest_ledger(run: Run, env: dict) -> None:
    """Artifacts of one seed must be byte-identical across runs of one code_id."""
    path = os.path.join(WORK, "digests.json")
    ledger = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            ledger = json.load(fh)
    for name, digest in sorted(run.digests.items()):
        key = f"{env['code_id']}|{run.workload}|{run.seed}|{name}"
        previous = ledger.setdefault(key, digest)
        run.check(previous == digest, f"{name} digest differs from an earlier run of this code and seed")
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, sort_keys=True, indent=1)
    os.replace(tmp, path)


def result_line(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> str:
    """The contract's last line; refuses a metric set that is not exactly ``units``."""
    if set(values) != set(units):
        raise BenchError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="nodemend benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a timeout usually arrives as SIGTERM: unwind instead of dying, so that
    # a running child is killed and waited for and the work directory goes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "nodemend", "__init__.py")):
        print(f"perfbench: no nodemend sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    work_dir = os.path.join(WORK, f"run-{tag}")
    os.makedirs(work_dir)
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
        env = environment(run.np)
        e2e = run.execute()
        check_digest_ledger(run, env)
        failed = len(run.failures)
        attempted = run.attempted
        if run.tracer:
            run.tracer.counts["modelio.model_bytes"] = run.extra["model_bytes"]
            per_layer = layers.metrics(run.tracer, span_cost_s())
            run.tracer.write_jsonl(os.path.join(WORK, "traces", f"{tag}.jsonl"))
            printed, units = per_layer, {name: layers.unit_of(name) for name in layers.PER_LAYER}
        else:
            per_layer = None
            printed, units = e2e, E2E
        line = result_line(failed == 0, attempted, failed, printed, units)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "sub_seeds": sub_seeds(args.seed),
            "seconds": args.seconds,
            "trace": args.trace,
            "env": env,
            "end_to_end": e2e,
            "per_layer": per_layer,
            "skipped_wrappers": run.tracer.skipped if run.tracer else [],
            "digests": run.digests,
            "failures": run.failures,
            "attempted": attempted,
            "extra": run.extra,
        }
        with open(os.path.join(WORK, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for message in run.failures:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
