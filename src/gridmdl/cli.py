"""Command line front end: solve, eval, create, render."""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from . import lang, tasks
from .grids import GridError, render_ppm
from .learn import DEFAULT_SEARCH, SearchConfig, create
from .parsing import ParseConfig


def _checked_flag(p: argparse.ArgumentParser, flag: str, dest: str, convert, probe,
                  default, help: str) -> None:
    """Add a flag whose argparse type reads the text with `convert` and
    makes a value that `probe` refuses with a ValueError a usage error;
    argparse names the flag, so a message's leading "dest: " is dropped."""
    def check(text: str):
        value = convert(text)
        try:
            probe(value)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e).removeprefix(f"{dest}: ")) from None
        return value
    check.__name__ = convert.__name__  # argparse names the type in "invalid int value"
    p.add_argument(flag, dest=dest, metavar=flag[2:].upper().replace("-", "_"), type=check,
                   default=default, help=help)


def _search_flag(p: argparse.ArgumentParser, flag: str, field: str, convert, help: str) -> None:
    """Add a flag whose dest is `field` of `SearchConfig`, or of its
    `ParseConfig`, whose default is that field's value in `DEFAULT_SEARCH`,
    and whose values are those that config takes."""
    defaults = DEFAULT_SEARCH.parse if field in ParseConfig.__dataclass_fields__ else DEFAULT_SEARCH
    _checked_flag(p, flag, field, convert, lambda value: replace(defaults, **{field: value}),
                  getattr(defaults, field), help)


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    _search_flag(p, "--timeout", "timeout", float, "learning budget per task, seconds")
    _search_flag(p, "--alpha", "alpha", float, "weight of data against model bits")
    _search_flag(p, "--beam", "beam", int, "models kept per search step")
    _search_flag(p, "--refinements", "refinements", int, "compressive refinements collected per step")
    _search_flag(p, "--max-trees", "max_trees_before_sort", int, "parse trees examined before sorting")
    _search_flag(p, "--keep-trees", "max_trees_kept", int, "readings kept per grid")
    _search_flag(p, "--max-diffs", "predict_diffs", int, "template diffs allowed when reading a test input")
    _search_flag(p, "--order", "order", str, "refinement group order policy")


def config_from_args(args) -> SearchConfig:
    """The config the search flags set; each flag's dest is its field."""
    given = vars(args)
    parse = ParseConfig(**{f: v for f, v in given.items() if f in ParseConfig.__dataclass_fields__})
    return SearchConfig(parse=parse, **{f: v for f, v in given.items()
                                        if f in SearchConfig.__dataclass_fields__})


def _print_grid(g, title: str) -> None:
    print(title)
    print(g.to_text())
    print()


def cmd_solve(args) -> int:
    cfg = config_from_args(args)
    task = tasks.load_task(args.task)
    report = tasks.evaluate_task(task, cfg)
    print(f"task {report.task_id}: {len(report.trace) - 1} steps, "
          f"normalized {report.lhat:.3f}, {report.seconds:.1f}s"
          + (" (timeout)" if report.timed_out else ""))
    for step in report.trace:
        print(step.describe())
    print()
    print(report.model_text)
    for k, res in enumerate(report.test):
        tag = f"test[{k}]"
        if res.known:
            verdict = f"solved at attempt {res.attempt}" if res.solved else "not solved"
            print(f"{tag}: {verdict}")
        for a, g in enumerate(res.predictions, start=1):
            _print_grid(g, f"{tag} prediction {a}:")
    print(tasks.BatchReport([report]).summary)
    return 0 if all(r.solved for r in report.test if r.known) else 1


def cmd_eval(args) -> int:
    cfg = config_from_args(args)
    paths: list[Path] = []
    for p in args.paths:
        paths.extend(tasks.task_paths(p))
    if not paths:
        print("no task files found", file=sys.stderr)
        return 2
    # open the report before evaluating, so that a path that cannot be
    # written fails at once rather than after the whole batch
    with open(args.out, "w") if args.out else nullcontext() as out:
        batch = tasks.evaluate_batch(paths, cfg, jobs=args.jobs)
        if out:
            out.write(tasks.report_jsonl(batch))
    for r in batch.reports:
        if r.test_score is None:
            mark, test = "?", "?"
        else:
            mark = "+" if r.test_score == 1.0 else ("." if r.test_score > 0 else "-")
            test = f"{r.test_score:.2f}"
        print(f"{mark} {r.task_id}  train {r.train_score:.2f}  test {test}  "
              f"{len(r.trace) - 1} steps  {r.seconds:.1f}s")
    for e in batch.errors:
        print(f"! {e.task_id}  error: {e.error}")
    print(batch.summary)
    return 1 if batch.errors else 0


def cmd_create(args) -> int:
    model = lang.parse_model(tasks.read_text(args.model))
    pair = create(model)
    print(lang.model_to_text(model))
    _print_grid(pair.input_grid, "input:")
    _print_grid(pair.output_grid, "output:")
    if args.ppm:
        out = Path(args.ppm)
        out.mkdir(parents=True, exist_ok=True)
        (out / "input.ppm").write_bytes(render_ppm(pair.input_grid))
        (out / "output.ppm").write_bytes(render_ppm(pair.output_grid))
        print(f"wrote {out}/input.ppm and {out}/output.ppm")
    return 0


def cmd_render(args) -> int:
    task = tasks.load_task(args.task)
    sections = [("train", task.train), ("test", task.test)]
    for section, examples in sections:
        for k, ex in enumerate(examples):
            _print_grid(ex.input, f"{section}[{k}] input:")
            if ex.output is not None:
                _print_grid(ex.output, f"{section}[{k}] output:")
    if args.ppm:
        out = Path(args.ppm)
        out.mkdir(parents=True, exist_ok=True)
        for section, examples in sections:
            for k, ex in enumerate(examples):
                (out / f"{section}{k}_in.ppm").write_bytes(render_ppm(ex.input))
                if ex.output is not None:
                    (out / f"{section}{k}_out.ppm").write_bytes(render_ppm(ex.output))
        print(f"wrote images under {out}/")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gridmdl",
                                     description="Learn descriptive grid models for ARC tasks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="learn one task and predict its test outputs")
    p.add_argument("task", help="task JSON file")
    _add_search_flags(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("eval", help="evaluate a batch of task files")
    p.add_argument("paths", nargs="+", help="task files or directories")
    # a batch of no files runs nothing, but checks its job count first
    _checked_flag(p, "--jobs", "jobs", int, lambda jobs: tasks.evaluate_batch((), jobs=jobs), 1,
                  "parallel worker processes")
    p.add_argument("--out", help="write a JSON-lines report here")
    _add_search_flags(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("create", help="generate an example pair from a model file")
    p.add_argument("model", help="model text file")
    p.add_argument("--ppm", help="directory for PPM images")
    p.set_defaults(fn=cmd_create)

    p = sub.add_parser("render", help="print a task's grids")
    p.add_argument("task", help="task JSON file")
    p.add_argument("--ppm", help="directory for PPM images")
    p.set_defaults(fn=cmd_render)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (tasks.TaskError, lang.LangError, GridError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
