"""Child-process steps of the benchmark, run from the checkout root.

    python3 perfbench/child.py inputs --workload W --seed N --out DIR
    python3 perfbench/child.py train --dir DIR --data FILE --out FILE

``inputs`` writes a workload's input files (events, ground truth and the
experiment configs), all derived from the seed. ``train`` fits and saves a
model exactly as ``nodemend train`` does and prints its wall time as JSON.
Both run in a child so that the timed process's peak memory holds only
the timed work.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

# Event counts. OFFLINE_TRAIN_N is the production scale of the README
# walkthrough; HELD_EVENTS feed its recommend sessions. UPDATE_WINDOW rows
# make each of the update workload's old, recent and holdout windows.
OFFLINE_TRAIN_N = 20000
HELD_EVENTS = 200
UPDATE_WINDOW = 5000


def sub_seeds(seed: int) -> list[int]:
    """Independent seeds for the training data, the harness and held-out events."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(3)]


def _config(seed: int, preset: str) -> dict:
    return {"seed": seed, "sim": {"preset": preset}}


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")


def _simulate(raw_config: dict, n: int):
    from nodemend.config import parse_experiment_config
    from nodemend.simulate import generate_observational_dataset

    return generate_observational_dataset(n, parse_experiment_config(raw_config).sim)


def write_inputs(workload: str, seed: int, out: str) -> None:
    from nodemend import modelio

    s_train, s_harness, s_held = sub_seeds(seed)
    if workload == "offline":
        config = _config(s_train, "default")
        events, truths = _simulate(config, OFFLINE_TRAIN_N)
        modelio.write_events_jsonl(events, os.path.join(out, "train.jsonl"))
        modelio.write_truth_jsonl(truths, os.path.join(out, "train_truth.jsonl"))
        held, held_truths = _simulate(_config(s_held, "default"), HELD_EVENTS)
        # the harness draws its own fresh events from this config's seeds
        _write_json(os.path.join(out, "compare_config.json"), _config(s_harness, "default"))
    elif workload == "update":
        config = _config(s_train, "two_regime")
        events, truths = _simulate(config, 3 * UPDATE_WINDOW)
        w = UPDATE_WINDOW
        modelio.write_events_jsonl(events[:w], os.path.join(out, "train.jsonl"))
        modelio.write_events_jsonl(events[w : 2 * w], os.path.join(out, "recent.jsonl"))
        held, held_truths = events[2 * w :], truths[2 * w :]
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    _write_json(os.path.join(out, "config.json"), config)
    modelio.write_events_jsonl(held, os.path.join(out, "held.jsonl"))
    modelio.write_truth_jsonl(held_truths, os.path.join(out, "held_truth.jsonl"))


def train(directory: str, data: str, out: str) -> dict:
    from nodemend import modelio
    from nodemend.config import parse_experiment_config
    from nodemend.dml import train_dml

    with open(os.path.join(directory, "config.json"), encoding="utf-8") as fh:
        cfg = parse_experiment_config(json.load(fh))
    start = time.perf_counter()
    events = modelio.read_events_jsonl(data)
    model = train_dml(events, cfg.train, cfg.sim.schema())
    modelio.save_model(model, out)
    return {"train_s": time.perf_counter() - start}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="step", required=True)
    p = sub.add_parser("inputs")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p = sub.add_parser("train")
    p.add_argument("--dir", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.step == "inputs":
        write_inputs(args.workload, args.seed, args.out)
    else:
        print(json.dumps(train(args.dir, args.data, args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
