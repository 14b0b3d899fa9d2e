"""Task files, evaluation reports, batch runs."""

import json

import pytest

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
])
def test_load_task_rejects_malformed_files(tmp_path, payload):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(TaskError):
        load_task(p)


def test_load_task_rejects_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(TaskError):
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
