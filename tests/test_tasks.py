"""Task files, evaluation reports, batch runs."""

import json

import pytest

from gridmdl import tasks
from gridmdl.grids import Grid
from gridmdl.learn import SearchConfig
from gridmdl.tasks import (
    BatchReport, TaskError, evaluate_batch, evaluate_task, load_task,
    report_jsonl, task_paths,
)
from helpers import NESTED_TEST, NESTED_TRAIN, write_task


def test_load_task_reads_train_and_test(nested_task_file):
    task = load_task(nested_task_file)
    assert task.task_id == "nested"
    assert len(task.train) == 3 and len(task.test) == 1
    assert isinstance(task.train[0].input, Grid)
    assert task.train[0].output == NESTED_TRAIN[0][1]
    assert task.test[0].output == NESTED_TEST[1]
    assert task.train_pairs[0] == (task.train[0].input, task.train[0].output)


def test_load_task_accepts_missing_test_output(tmp_path):
    p = tmp_path / "open.json"
    p.write_text(json.dumps({
        "train": [{"input": [[0]], "output": [[1]]}],
        "test": [{"input": [[0]]}],
    }))
    task = load_task(p)
    assert task.test[0].output is None


@pytest.mark.parametrize("payload", [
    {},                                                       # no train
    {"train": [], "test": []},                                # empty train
    {"train": [{"input": [[0]]}], "test": []},                # train without output
    {"train": [{"input": [[0, 10]], "output": [[0]]}], "test": []},   # bad colour
    {"train": [{"input": [[0], [0, 0]], "output": [[0]]}], "test": []},  # ragged
    {"train": [{"input": [[0] * 31], "output": [[0]]}], "test": []},  # too wide
    {"train": [{"input": "nope", "output": [[0]]}], "test": []},      # not a grid
    {"train": [7], "test": []},                                       # not an example
    {"train": [{"input": [[0]], "output": [[0]]}], "test": ["x"]},    # not an example
])
def test_load_task_rejects_malformed_files(tmp_path, payload):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(TaskError):
        load_task(p)


@pytest.mark.parametrize("cell", ["x", None, 1.7, True, "3", -1, [0]])
def test_load_task_rejects_a_cell_that_is_not_a_colour(tmp_path, cell):
    p = tmp_path / "cells.json"
    p.write_text(json.dumps({
        "train": [{"input": [[0, 0], [0, cell]], "output": [[1]]}],
        "test": [{"input": [[0]]}],
    }))
    with pytest.raises(TaskError, match=r"cells.json:train\[0\].input\[1\]\[1\]: cell"):
        load_task(p)


def test_load_task_rejects_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(TaskError):
        load_task(p)


def test_load_task_rejects_a_file_that_is_not_utf8(tmp_path):
    p = tmp_path / "latin.json"
    p.write_bytes(b'{"train": [], "test": [], "note": "caf\xe9"}')
    with pytest.raises(TaskError, match=r"latin.json: not UTF-8 text: .* at byte 38"):
        load_task(p)


def test_evaluate_task_solves_the_nested_task(nested_task_file):
    report = evaluate_task(load_task(nested_task_file))
    assert report.train_score == 1.0
    assert report.test_score == 1.0
    assert all(r.solved and r.attempt == 1 for r in report.test)
    assert report.lhat <= 0.25
    assert "in: " in report.model_text and "out: " in report.model_text


def test_evaluate_task_marks_unknown_outputs(tmp_path):
    p = tmp_path / "open.json"
    write_task(p, NESTED_TRAIN, [(NESTED_TEST[0], None)])
    report = evaluate_task(load_task(p))
    assert report.test[0].known is False
    assert report.test_score is None
    # predictions are still produced for inspection
    assert report.test[0].predictions


def test_task_paths_sorted(tmp_path):
    for name in ["b.json", "a.json", "c.json"]:
        write_task(tmp_path / name, NESTED_TRAIN[:1], [])
    assert [p.name for p in task_paths(tmp_path)] == ["a.json", "b.json", "c.json"]


def _two_task_dir(tmp_path):
    write_task(tmp_path / "n1.json", NESTED_TRAIN, [NESTED_TEST])
    write_task(tmp_path / "n2.json", NESTED_TRAIN[:2], [NESTED_TEST])
    return task_paths(tmp_path)


def test_evaluate_batch_sequential(tmp_path):
    paths = _two_task_dir(tmp_path)
    batch = evaluate_batch(paths)
    assert [r.task_id for r in batch.reports] == ["n1", "n2"]
    assert batch.summary.startswith("tasks 2 ")
    assert "test 2 / 2.0" in batch.summary


def test_evaluate_batch_parallel_matches_order(tmp_path):
    paths = _two_task_dir(tmp_path)
    batch = evaluate_batch(paths, jobs=2)
    assert [r.task_id for r in batch.reports] == ["n1", "n2"]
    assert [r.test_score for r in batch.reports] == [1.0, 1.0]


@pytest.mark.parametrize("files,pools", [(3, [3]), (1, []), (0, [])])
def test_evaluate_batch_starts_no_more_workers_than_files(tmp_path, monkeypatch, files, pools):
    sizes, methods = [], []

    class InProcessPool:
        """Stands in for ProcessPoolExecutor: records `max_workers` and the
        start method of `mp_context`, and maps in the calling process, so no
        process starts."""

        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)
            methods.append(mp_context.get_start_method())

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(tasks, "ProcessPoolExecutor", InProcessPool)
    paths = []
    for k in range(files):  # unreadable files: each becomes an error record
        paths.append(tmp_path / f"bad{k}.json")
        paths[-1].write_text("{}")
    batch = evaluate_batch(paths, jobs=64)
    assert sizes == pools
    # workers are spawned: forking a caller that runs threads is unsafe
    assert methods == ["spawn"] * len(pools)
    assert [e.task_id for e in batch.errors] == [f"bad{k}" for k in range(files)]


@pytest.mark.parametrize("jobs", [0, -3])
def test_evaluate_batch_refuses_fewer_than_one_job(tmp_path, jobs):
    with pytest.raises(ValueError, match=f"^jobs: must be at least 1, got {jobs}$"):
        evaluate_batch(_two_task_dir(tmp_path), jobs=jobs)


@pytest.mark.parametrize("jobs", [1.5, "2", True, 0])
def test_evaluate_batch_refuses_a_bad_job_count_before_any_task_runs(tmp_path, monkeypatch, jobs):
    # a job count is an int of at least 1, as every other count setting is
    def started(*args, **kwargs):
        raise AssertionError("a task was evaluated")

    monkeypatch.setattr(tasks, "ProcessPoolExecutor", started)
    monkeypatch.setattr(tasks, "_evaluate_path", started)
    with pytest.raises(ValueError, match="^jobs: must be (an int|at least 1), got "):
        evaluate_batch(_two_task_dir(tmp_path), jobs=jobs)


def test_report_jsonl_one_object_per_task(tmp_path):
    batch = evaluate_batch(_two_task_dir(tmp_path))
    lines = report_jsonl(batch).strip().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    for key in ["task", "train_score", "test_score", "solved", "steps",
                "lhat", "seconds", "timed_out", "model"]:
        assert key in rec, key
    assert rec["task"] == "n1"
    assert rec["solved"] is True
