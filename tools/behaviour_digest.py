"""Print one JSON line of behaviour digests per reference training.

Run from a checkout's root: ``python tools/behaviour_digest.py``. It
imports the ``nodemend`` package of that checkout (``src/``), so running
it in two checkouts and diffing the output shows whether a change keeps
behaviour bitwise. Each line covers one training at seed 1010 through the
CLI (simulate, train), then, on 2 000 fresh events from seed 2020:

* ``estimates``: sha256 over tau, lower and upper as float hex, of the
  batch estimates and of the first 100 single-row estimates, from the
  model after save and load;
* ``psi_fresh`` and ``psi_train``: psi on the fresh and the training
  events, as float hex;
* ``compare``, ``abtest``, ``counterfactual`` and ``interpret``: sha256
  of a 2 000-event ``compare`` report (all six policies) with its
  table, of a 2 000-event ``abtest`` output (legacy and engine, weight 1
  each), of the ``counterfactual`` output, and of the ``interpret`` text
  with a ``vm_count`` effect curve;
* ``recommend``: sha256 over the stdout and the action log of ``nodemend
  recommend`` run on each of the first 20 fresh events, with the event's
  own signals file, node id, event id and timestamp.

The model file itself is left out, as its bytes change with the format
version; its sha256, its size and its ``load_model`` time (the best of
``LOAD_REPEATS`` loads, so a format change shows its load cost) go to
stderr. So does the wall time of each in-process analysis of the fresh
events (psi, counterfactual, the depth-3 policy tree and the 8-bin
``vm_count`` effect curve, the best of ``ANALYSIS_REPEATS`` runs each),
so a change to batch prediction shows its cost.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from nodemend.cli import main  # noqa: E402
from nodemend.dml import estimate_ite, estimate_ite_batch, psi_loss  # noqa: E402
from nodemend.domain import to_record  # noqa: E402
from nodemend.evaluation import POLICY_NAMES, counterfactual_analysis  # noqa: E402
from nodemend.interpret import cate_by_feature, interpret_model  # noqa: E402
from nodemend.modelio import load_model, read_events_jsonl, read_truth_jsonl  # noqa: E402

SEED = 1010
FRESH_SEED = 2020
FRESH_N = 2000
SINGLE_ROWS = 100
RECOMMEND_EVENTS = 20
LOAD_REPEATS = 7
ANALYSIS_REPEATS = 3
# (preset, training events, final stage)
TRAININGS = (
    ("default", 3000, "forest"),
    ("two_regime", 3000, "forest"),
    ("two_regime", 3000, "linear"),
    ("default", 20000, "forest"),
)


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def cli(*argv: object) -> str:
    """Run one command and return its stdout; any exit but 0 aborts."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"nodemend {argv[0]} exited {code}")
    return out.getvalue()


def best_of(repeats: int, run) -> tuple[float, object]:
    """The least wall time of ``repeats`` calls of ``run``, and its last result."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - start)
    return min(times), result


def estimates_hex(estimates) -> str:
    return "\n".join(f"{e.tau.hex()} {e.tau_lower.hex()} {e.tau_upper.hex()}" for e in estimates)


def digest(preset: str, n: int, final_stage: str, work: str) -> dict:
    def path(name: str) -> str:
        return os.path.join(work, name)

    for name, seed in (("config.json", SEED), ("fresh_config.json", FRESH_SEED)):
        with open(path(name), "w", encoding="utf-8") as fh:
            json.dump({"seed": seed, "sim": {"preset": preset}}, fh)
    cli("simulate", "--config", path("config.json"), "--n", n, "--out", path("train.jsonl"), "--truth", path("train_truth.jsonl"))
    cli("simulate", "--config", path("fresh_config.json"), "--n", FRESH_N, "--out", path("fresh.jsonl"), "--truth", path("fresh_truth.jsonl"))
    cli("train", "--config", path("config.json"), "--data", path("train.jsonl"), "--out", path("model.bin"), "--final-stage", final_stage)
    with open(path("model.bin"), "rb") as fh:
        model_bytes = fh.read()
    load_s, model = best_of(LOAD_REPEATS, lambda: load_model(path("model.bin")))
    print(
        f"{preset} {n} {final_stage}: model.bin sha256 {sha256(model_bytes)} bytes {len(model_bytes)}"
        f" load_model {load_s * 1e3:.2f} ms (best of {LOAD_REPEATS})",
        file=sys.stderr,
    )

    fresh = read_events_jsonl(path("fresh.jsonl"))
    truths = read_truth_jsonl(path("fresh_truth.jsonl"))
    analyses = {
        "psi": lambda: psi_loss(model, fresh),
        "counterfactual": lambda: counterfactual_analysis(model, fresh, truths),
        "interpret": lambda: interpret_model(model, fresh, max_depth=3),
        "cate": lambda: cate_by_feature(model, fresh, "vm_count", 8),
    }
    analysis_s = {name: best_of(ANALYSIS_REPEATS, run)[0] for name, run in analyses.items()}
    print(
        f"{preset} {n} {final_stage}: analysis "
        + " ".join(f"{name} {t * 1e3:.1f} ms" for name, t in analysis_s.items())
        + f" (best of {ANALYSIS_REPEATS})",
        file=sys.stderr,
    )
    train = read_events_jsonl(path("train.jsonl"))
    batch = estimate_ite_batch(model, [e.signals for e in fresh])
    single = [estimate_ite(model, e.signals) for e in fresh[:SINGLE_ROWS]]
    table = cli(
        "compare", "--config", path("fresh_config.json"), "--model", path("model.bin"), "--n", FRESH_N,
        "--policies", ",".join(POLICY_NAMES), "--out", path("report.json"),
    )
    with open(path("report.json"), "rb") as fh:
        report = fh.read()
    decisions = []
    for i, e in enumerate(fresh[:RECOMMEND_EVENTS]):
        with open(path(f"signals_{i}.json"), "w", encoding="utf-8") as fh:
            json.dump(to_record(e.signals), fh)
        decisions.append(
            cli("recommend", "--model", path("model.bin"), "--signals", path(f"signals_{i}.json"), "--log", path("actions.jsonl"),
                "--node-id", e.node_id, "--event-id", e.event_id, "--timestamp", e.timestamp)
        )
    with open(path("actions.jsonl"), "rb") as fh:
        action_log = fh.read()
    return {
        "training": f"{preset} {n} {final_stage}",
        "estimates": sha256(estimates_hex(batch) + "\n--\n" + estimates_hex(single)),
        "psi_fresh": psi_loss(model, fresh).hex(),
        "psi_train": psi_loss(model, train).hex(),
        "compare": sha256(report + table.encode("utf-8")),
        "abtest": sha256(
            cli("abtest", "--config", path("fresh_config.json"), "--experiment", "digest", "--groups", "legacy:1,engine:1",
                "--n", FRESH_N, "--model", path("model.bin"))
        ),
        "counterfactual": sha256(
            cli("counterfactual", "--model", path("model.bin"), "--data", path("fresh.jsonl"), "--truth", path("fresh_truth.jsonl"))
        ),
        "interpret": sha256(cli("interpret", "--model", path("model.bin"), "--data", path("fresh.jsonl"), "--cate-feature", "vm_count")),
        "recommend": sha256("".join(decisions).encode("utf-8") + action_log),
    }


def run() -> int:
    for preset, n, final_stage in TRAININGS:
        with tempfile.TemporaryDirectory(prefix="behaviour-digest-") as work:
            print(json.dumps(digest(preset, n, final_stage, work), sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run())
