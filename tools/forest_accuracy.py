"""Print the causal forest's accuracy against the exact effect of the
two-regime preset.

Run from a checkout's root: ``python tools/forest_accuracy.py``. It imports
the ``nodemend`` package of that checkout (``src/``), so running it in two
checkouts and comparing the last lines shows what a change does to the
forest's estimates and intervals. Nothing here is gated.

For each data seed s in 1..DATA_SEEDS, it draws TRAIN events of the
two-regime preset at seed s and FRESH events at seed 10 000 + s, cross-fits the
nuisances once (``TrainConfig(seed=s)``), then fits FOREST_SEEDS forests on
the same residuals, forest f at seed ``seed_for(s, 3, f)``. On the fresh
events, where the true effect is exactly +delta or -delta, each fit gives:

* ``rmse``: root mean squared error of the point estimates;
* ``coverage``: the share of intervals, at the forest's confidence level,
  that hold the true effect;
* ``bias+`` and ``bias-``: the mean error where the true effect is +delta
  and where it is -delta;
* ``w10``, ``w50``, ``w90``: the 10th, 50th and 90th percentiles of the
  interval width;
* ``fit_s``: the wall seconds of the ``fit_forest`` call, its bags grown
  on the available CPUs. Unlike the other columns it varies from run to
  run.

One line per fit, then the mean of each column over all fits.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from nodemend.dml import TrainConfig, residualize_dataset  # noqa: E402
from nodemend.domain import encode_matrix, seed_for  # noqa: E402
from nodemend.forest import fit_forest, predict_tau_ci  # noqa: E402
from nodemend.simulate import generate_observational_dataset, preset, true_tau  # noqa: E402

DATA_SEEDS = 10
FOREST_SEEDS = 3
TRAIN = 5000
FRESH = 3000
FRESH_SEED_OFFSET = 10_000
COLUMNS = ("rmse", "coverage", "bias+", "bias-", "w10", "w50", "w90", "fit_s")


def accuracy(tau: np.ndarray, lower: np.ndarray, upper: np.ndarray, truth: np.ndarray) -> dict[str, float]:
    error = tau - truth
    width = np.percentile(upper - lower, [10, 50, 90])
    return {
        "rmse": float(np.sqrt(np.mean(error**2))),
        "coverage": float(np.mean((lower <= truth) & (truth <= upper))),
        "bias+": float(error[truth > 0].mean()),
        "bias-": float(error[truth < 0].mean()),
        **{f"w{q}": float(w) for q, w in zip((10, 50, 90), width)},
    }


def main() -> None:
    print(f"{'data':>4} {'forest':>6} " + " ".join(f"{c:>8}" for c in COLUMNS))
    rows = []
    for s in range(1, DATA_SEEDS + 1):
        config = preset("two_regime", s)
        events, _ = generate_observational_dataset(TRAIN, config)
        train_config = TrainConfig(seed=s)
        res, _, _ = residualize_dataset(events, train_config, config.schema())
        fresh, _ = generate_observational_dataset(FRESH, preset("two_regime", FRESH_SEED_OFFSET + s))
        X = encode_matrix([e.signals for e in fresh], config.schema())
        truth = np.array([true_tau(e.signals, config) for e in fresh])
        for f in range(FOREST_SEEDS):
            start = time.perf_counter()
            forest = fit_forest(res.features, res.ry, res.ra, train_config.forest, seed=seed_for(s, 3, f))
            fit_s = time.perf_counter() - start
            estimates = predict_tau_ci(forest, X)
            tau, lower, upper = (np.array([getattr(e, k) for e in estimates]) for k in ("tau", "tau_lower", "tau_upper"))
            rows.append({**accuracy(tau, lower, upper, truth), "fit_s": fit_s})
            print(f"{s:>4} {f:>6} " + " ".join(f"{rows[-1][c]:>8.4f}" for c in COLUMNS), flush=True)
    print(f"{'mean':>11} " + " ".join(f"{np.mean([r[c] for r in rows]):>8.4f}" for c in COLUMNS))


if __name__ == "__main__":
    main()
