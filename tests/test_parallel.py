"""Training fans its independent tasks out over the available CPUs, and the
artifacts do not depend on how many there are."""

import json
import os
import threading

import pytest

from nodemend import parallel
from nodemend.cli import main
from nodemend.errors import InvalidArgument
from nodemend.parallel import map_tasks


def _square_and_pid(offset, i):
    return (i + offset) ** 2, os.getpid()


def _fail_on_two(state, i):
    if i == 2:
        raise InvalidArgument(f"task {i} refused")
    return i


def _divide(state, i):
    return state / (i - 1)


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs the pool believes this process may use."""

    def set_cpus(k: int) -> None:
        monkeypatch.setattr(parallel, "available_cpus", lambda: k)

    return set_cpus


def test_available_cpus_counts_this_process():
    assert 1 <= parallel.available_cpus() <= (os.cpu_count() or 1)


def test_results_come_back_in_task_order(cpus):
    cpus(2)
    # a pool leaves no thread behind, so the second call forks again
    for _ in range(2):
        results = map_tasks(_square_and_pid, 3, 7)
        assert [r for r, _ in results] == [(i + 3) ** 2 for i in range(7)]
        assert os.getpid() not in {pid for _, pid in results}


def test_one_cpu_runs_in_this_process(cpus):
    cpus(1)
    results = map_tasks(_square_and_pid, 0, 3)
    assert results == [(0, os.getpid()), (1, os.getpid()), (4, os.getpid())]
    assert map_tasks(_square_and_pid, 0, 0) == []


def test_other_threads_keep_the_tasks_in_this_process(cpus):
    cpus(2)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        results = map_tasks(_square_and_pid, 0, 3)
    finally:
        release.set()
        other.join(30)
    assert not other.is_alive()
    assert {pid for _, pid in results} == {os.getpid()}


@pytest.mark.parametrize("workers", [1, 2])
def test_worker_exception_reaches_caller_as_same_type(cpus, workers):
    cpus(workers)
    with pytest.raises(InvalidArgument, match="task 2 refused"):
        map_tasks(_fail_on_two, None, 4)
    with pytest.raises(ZeroDivisionError):
        map_tasks(_divide, 1.0, 3)


def test_train_writes_the_same_model_bin_on_any_worker_count(tmp_path, cpus):
    config = {
        "seed": 23,
        "sim": {"preset": "default"},
        "nuisance": {"rounds": 30},
        "folds": 3,
        "forest": {"bags": 5, "trees_per_bag": 2, "max_depth": 5},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    events = tmp_path / "events.jsonl"
    argv = ["simulate", "--config", str(cfg_path), "--out", str(events), "--truth", str(tmp_path / "truth.jsonl")]
    assert main(argv + ["--n", "400"]) == 0
    models = []
    # 3 folds make 6 fold fits in one map; 4 workers do not divide them
    for run, workers in enumerate([1, 2, 2, 3, 4]):
        cpus(workers)
        out = tmp_path / f"model_{run}.bin"
        assert main(["train", "--config", str(cfg_path), "--data", str(events), "--out", str(out)]) == 0
        models.append(out.read_bytes())
    assert all(model == models[0] for model in models)
