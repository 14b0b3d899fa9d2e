"""End-to-end checks of the command line front end, run in process."""

import json

import pytest

from gridmdl.cli import main

from helpers import NESTED_SOLUTION_TEXT, NESTED_TEST, NESTED_TRAIN, write_task


MODEL_TEXT = (
    "in: Grid(Vec(4, 4), black, "
    "[PosShape(Vec(1, 1), Rectangle(Vec(2, 2), green, Full))])\n"
    "out: Grid(layers[0].shape.size, layers[0].shape.color, [])\n"
)


def test_solve_solves_the_nested_task(nested_task_file, capsys):
    rc = main(["solve", str(nested_task_file)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "task nested:" in out
    assert "solved at attempt 1" in out
    assert NESTED_SOLUTION_TEXT in out
    assert "test 1 / 1.0" in out


def test_solve_exits_one_when_not_solved(nested_task_file, capsys):
    # A zero budget keeps the initial model, whose guess cannot match.
    rc = main(["solve", str(nested_task_file), "--timeout", "0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "not solved" in out
    assert "(timeout)" in out


def test_solve_rejects_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["solve", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err and "bad JSON" in err


def test_solve_rejects_missing_file(tmp_path, capsys):
    rc = main(["solve", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_eval_reports_and_writes_jsonl(tmp_path, capsys):
    write_task(tmp_path / "n1.json", NESTED_TRAIN, [NESTED_TEST])
    write_task(tmp_path / "n2.json", NESTED_TRAIN[:2], [NESTED_TEST])
    out_file = tmp_path / "report.jsonl"
    rc = main(["eval", str(tmp_path), "--out", str(out_file)])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("+ n1 ")
    assert lines[1].startswith("+ n2 ")
    assert lines[-1].startswith("tasks 2 ")
    records = [json.loads(s) for s in out_file.read_text().splitlines()]
    assert [r["task"] for r in records] == ["n1", "n2"]
    assert all(r["solved"] for r in records)


def test_eval_parallel_jobs(tmp_path, capsys):
    write_task(tmp_path / "n1.json", NESTED_TRAIN, [NESTED_TEST])
    write_task(tmp_path / "n2.json", NESTED_TRAIN[:2], [NESTED_TEST])
    rc = main(["eval", str(tmp_path), "--jobs", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip().splitlines()[-1].startswith("tasks 2 ")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_eval_records_a_bad_task_file_and_keeps_the_others(tmp_path, capsys, jobs):
    write_task(tmp_path / "n1.json", NESTED_TRAIN, [NESTED_TEST])
    write_task(tmp_path / "n2.json", NESTED_TRAIN[:2], [NESTED_TEST])
    (tmp_path / "bad.json").write_text("{not json")
    out_file = tmp_path / "report.jsonl"
    rc = main(["eval", str(tmp_path), "--out", str(out_file), "--jobs", jobs])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 1
    assert lines[0].startswith("+ n1 ") and lines[1].startswith("+ n2 ")
    assert lines[2].startswith("! bad  error: bad.json: bad JSON")
    assert lines[-1].startswith("tasks 2  errors 1 ")
    records = [json.loads(s) for s in out_file.read_text().splitlines()]
    assert [r["task"] for r in records] == ["bad", "n1", "n2"]
    assert set(records[0]) == {"task", "error"} and "bad JSON" in records[0]["error"]
    assert records[1]["solved"] and records[2]["solved"]


def test_eval_marks_unknown_test_outputs(tmp_path, capsys):
    write_task(tmp_path / "n1.json", NESTED_TRAIN, [(NESTED_TEST[0], None)])
    rc = main(["eval", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0].startswith("? n1 ")


def test_eval_empty_directory_fails(tmp_path, capsys):
    rc = main(["eval", str(tmp_path)])
    assert rc == 2
    assert "no task files found" in capsys.readouterr().err


def test_create_prints_pair_and_images(tmp_path, capsys):
    model_file = tmp_path / "model.txt"
    model_file.write_text(MODEL_TEXT)
    ppm_dir = tmp_path / "img"
    rc = main(["create", str(model_file), "--ppm", str(ppm_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "input:" in out and "output:" in out
    # The 2x2 green rectangle fills the created output grid.
    assert "33\n33" in out
    for name in ("input.ppm", "output.ppm"):
        data = (ppm_dir / name).read_bytes()
        assert data.startswith(b"P6")


def test_create_rejects_bad_model_text(tmp_path, capsys):
    model_file = tmp_path / "model.txt"
    model_file.write_text("in: Grid(Vec(1, 2), black)\nout: Grid(?, ?, [])\n")
    rc = main(["create", str(model_file)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_create_rejects_a_bare_number_in_a_vector_slot(tmp_path, capsys):
    model_file = tmp_path / "model.txt"
    model_file.write_text("in: Grid(7, black, [])\nout: Grid(?, ?, [])\n")
    rc = main(["create", str(model_file)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "cannot fill a vec slot" in err
    assert "Traceback" not in err


def test_create_rejects_a_degenerate_grid_size(tmp_path, capsys):
    model_file = tmp_path / "model.txt"
    model_file.write_text("in: Grid(Vec(0, 3), black, [])\nout: Grid(?, ?, [])\n")
    rc = main(["create", str(model_file)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:") and "degenerate grid size 0x3" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_render_prints_grids_and_images(nested_task_file, tmp_path, capsys):
    ppm_dir = tmp_path / "img"
    rc = main(["render", str(nested_task_file), "--ppm", str(ppm_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    for tag in ("train[0] input:", "train[2] output:", "test[0] input:"):
        assert tag in out
    assert (ppm_dir / "train0_in.ppm").read_bytes().startswith(b"P6")
    assert (ppm_dir / "test0_out.ppm").read_bytes().startswith(b"P6")
