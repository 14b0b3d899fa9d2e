"""End-to-end checks of the command line front end, run in process."""

import argparse
import json
import re
from pathlib import Path

import pytest

from gridmdl import tasks
from gridmdl.cli import _add_search_flags, main

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


def test_solve_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin.json"
    bad.write_bytes(b"\xff\xfe{}")
    rc = main(["solve", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error: latin.json: not UTF-8 text" in err


def test_eval_records_a_file_that_is_not_utf8_and_keeps_the_others(tmp_path, capsys):
    write_task(tmp_path / "good.json", NESTED_TRAIN, [NESTED_TEST])
    (tmp_path / "latin.json").write_bytes(b"\xff\xfe{}")
    out_file = tmp_path / "report.jsonl"
    rc = main(["eval", str(tmp_path), "--out", str(out_file)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 1
    assert lines[0].startswith("+ good ")
    assert lines[1].startswith("! latin  error: latin.json: not UTF-8 text")
    records = [json.loads(s) for s in out_file.read_text().splitlines()]
    assert [r["task"] for r in records] == ["good", "latin"]


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


def test_eval_refuses_a_report_path_it_cannot_write_before_evaluating(
        tmp_path, capsys, monkeypatch):
    write_task(tmp_path / "n1.json", NESTED_TRAIN, [NESTED_TEST])

    def evaluated(*args, **kwargs):
        raise AssertionError("evaluate_batch called")

    monkeypatch.setattr(tasks, "evaluate_batch", evaluated)
    rc = main(["eval", str(tmp_path), "--out", str(tmp_path / "missing" / "r.jsonl")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "r.jsonl" in captured.err


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


def test_eval_records_a_task_file_with_a_bad_cell_and_keeps_the_others(tmp_path, capsys):
    write_task(tmp_path / "good.json", NESTED_TRAIN, [NESTED_TEST])
    (tmp_path / "cell.json").write_text(json.dumps(
        {"train": [{"input": [[0, "x"]], "output": [[0]]}], "test": []}))
    out_file = tmp_path / "report.jsonl"
    rc = main(["eval", str(tmp_path), "--out", str(out_file)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 1
    assert lines[0].startswith("+ good ")
    assert lines[1].startswith("! cell  error: cell.json:train[0].input[0][1]: cell 'x'")
    records = [json.loads(s) for s in out_file.read_text().splitlines()]
    assert [r["task"] for r in records] == ["cell", "good"]
    assert set(records[0]) == {"task", "error"}
    assert records[1]["solved"]


@pytest.mark.parametrize("command", ["solve", "eval"])
@pytest.mark.parametrize("value, flag", [
    ("0", "--keep-trees"), ("-1", "--keep-trees"), ("0", "--max-trees"), ("-1", "--max-trees"),
    ("0", "--beam"), ("0", "--refinements"), ("-1", "--max-diffs"),
])
def test_tree_bounds_below_one_are_usage_errors(nested_task_file, capsys, command, flag, value):
    floor = 0 if flag == "--max-diffs" else 1
    with pytest.raises(SystemExit) as exc:
        main([command, str(nested_task_file), flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"error: argument {flag}: must be at least {floor}" in err


@pytest.mark.parametrize("command", ["solve", "eval"])
def test_an_unknown_refinement_group_is_a_usage_error(nested_task_file, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, str(nested_task_file), "--order", "So-Xx"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "error: argument --order:" in err and "'Xx'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "eval"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_a_data_weight_that_is_not_finite_and_positive_is_a_usage_error(
        nested_task_file, capsys, command, value):
    with pytest.raises(SystemExit) as exc:
        main([command, str(nested_task_file), f"--alpha={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "error: argument --alpha: alpha must be" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "eval"])
@pytest.mark.parametrize("value", ["nan", "-1"])
def test_a_timeout_that_is_not_finite_and_at_least_zero_is_a_usage_error(
        nested_task_file, capsys, command, value):
    with pytest.raises(SystemExit) as exc:
        main([command, str(nested_task_file), "--timeout", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "error: argument --timeout: timeout must be" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_fewer_than_one_job_is_a_usage_error(nested_task_file, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["eval", str(nested_task_file), "--jobs", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "error: argument --jobs: must be at least 1" in err
    assert "Traceback" not in err


def test_readme_lists_exactly_the_search_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Search knobs", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    listed = re.findall(r"^(--[a-z-]+) ", block, re.M)
    p = argparse.ArgumentParser()
    _add_search_flags(p)
    assert sorted(listed) == sorted(a.option_strings[0] for a in p._actions
                                    if a.option_strings and a.dest != "help")
    shown = dict(re.findall(r"^(--[a-z-]+) (\S+)", block, re.M))
    actions = p._option_string_actions
    assert {f: actions[f].default for f in shown} == {f: actions[f].type(v) for f, v in shown.items()}


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


def test_create_refuses_a_model_file_that_is_not_utf8(tmp_path, capsys):
    model_file = tmp_path / "model.txt"
    model_file.write_bytes(b"in: Grid(?, ?, [])\nout: Grid(?, \xff, [])\n")
    rc = main(["create", str(model_file)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: model.txt: not UTF-8 text: invalid start byte at byte 32")
    assert "Traceback" not in err


def test_create_rejects_a_bare_number_in_a_vector_slot(tmp_path, capsys):
    model_file = tmp_path / "model.txt"
    model_file.write_text("in: Grid(7, black, [])\nout: Grid(?, ?, [])\n")
    rc = main(["create", str(model_file)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "cannot fill a vec slot" in err
    assert "Traceback" not in err


def test_create_rejects_an_unterminated_bitmap(tmp_path, capsys):
    model_file = tmp_path / "model.txt"
    model_file.write_text("in: Grid(Vec(3, 3), black, [PosShape(Vec(0, 0), "
                          "Rectangle(Vec(1, 2), red, Bitmap(01\nout: Grid(?, ?, [])\n")
    rc = main(["create", str(model_file)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "unterminated bitmap" in err
    assert "Traceback" not in err


def test_create_rejects_a_repeated_input_line(tmp_path, capsys):
    model_file = tmp_path / "model.txt"
    model_file.write_text("in: Grid(Vec(1, 1), black, [])\nout: Grid(?, ?, [])\n"
                          "in: Grid(Vec(2, 2), blue, [])\n")
    rc = main(["create", str(model_file)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:") and "repeated in: line" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_create_rejects_a_degenerate_grid_size(tmp_path, capsys):
    model_file = tmp_path / "model.txt"
    model_file.write_text("in: Grid(Vec(0, 3), black, [])\nout: Grid(?, ?, [])\n")
    rc = main(["create", str(model_file)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:") and "degenerate grid size 0x3" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_create_refuses_a_rectangle_side_below_one(tmp_path, capsys):
    model_file = tmp_path / "model.txt"
    model_file.write_text("in: Grid(Vec(3, 3), black, "
                          "[PosShape(Vec(0, 0), Rectangle(Vec(0, 2), red, Full))])\n"
                          "out: Grid(?, ?, [])\n")
    rc = main(["create", str(model_file)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:") and "degenerate rectangle size 0x2" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text, message", [
    ("in: Grid(Vec(31, 3), black, [])", "grid size 31x3 exceeds 30"),
    ("in: Grid(Vec(3, 3), black, [PosShape(Vec(0, 0), Rectangle(Vec(2, 31), red, Full))])",
     "rectangle size 2x31 exceeds 30"),
])
def test_create_refuses_a_side_above_what_arc_allows(tmp_path, capsys, text, message):
    model_file = tmp_path / "model.txt"
    model_file.write_text(text + "\nout: Grid(?, ?, [])\n")
    rc = main(["create", str(model_file)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:") and message in captured.err
    assert "Traceback" not in captured.err


def test_render_prints_grids_and_images(nested_task_file, tmp_path, capsys):
    ppm_dir = tmp_path / "img"
    rc = main(["render", str(nested_task_file), "--ppm", str(ppm_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    for tag in ("train[0] input:", "train[2] output:", "test[0] input:"):
        assert tag in out
    assert (ppm_dir / "train0_in.ppm").read_bytes().startswith(b"P6")
    assert (ppm_dir / "test0_out.ppm").read_bytes().startswith(b"P6")
