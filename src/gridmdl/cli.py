"""Command line front end: solve, eval, create, render."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import coding, lang, tasks
from .grids import GridError, render_ppm
from .learn import SearchConfig, create
from .parsing import ParseConfig


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timeout", type=float, default=30.0, help="learning budget per task, seconds")
    p.add_argument("--alpha", type=float, default=10.0, help="weight of data against model bits")
    p.add_argument("--beam", type=int, default=1, help="models kept per search step")
    p.add_argument("--refinements", type=int, default=20, help="compressive refinements collected per step")
    p.add_argument("--max-trees", type=int, default=64, help="parse trees examined before sorting")
    p.add_argument("--keep-trees", type=int, default=3, help="readings kept per grid")
    p.add_argument("--max-diffs", type=int, default=3, help="template diffs allowed when reading a test input")
    p.add_argument("--order", default="So-Si-Eo-Ei", help="refinement group order policy")


def config_from_args(args) -> SearchConfig:
    parse_cfg = ParseConfig(max_trees_before_sort=args.max_trees,
                            max_trees_kept=args.keep_trees)
    return SearchConfig(refinements=args.refinements, beam=args.beam,
                        timeout=args.timeout, order=args.order,
                        predict_diffs=args.max_diffs,
                        dl=coding.DLConfig(alpha=args.alpha),
                        parse=parse_cfg)


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
    batch = tasks.evaluate_batch(paths, cfg, jobs=args.jobs)
    if args.out:
        Path(args.out).write_text(tasks.report_jsonl(batch))
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
    model = lang.parse_model(Path(args.model).read_text())
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
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
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
