"""ARC task files, evaluation loops, and report formatting."""

from __future__ import annotations

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .grids import MAX_DIM, Grid, GridError  # MAX_DIM: re-exported
from .lang import model_to_text
from .learn import SearchConfig, DEFAULT_SEARCH, learn, predict
from .parsing import check_setting

ATTEMPTS = 3


class TaskError(Exception):
    """Malformed task file."""


@dataclass(frozen=True)
class Example:
    input: Grid
    output: Grid | None


@dataclass(frozen=True)
class Task:
    task_id: str
    train: tuple
    test: tuple

    @property
    def train_pairs(self):
        return [(ex.input, ex.output) for ex in self.train]


def _grid_of(obj, where: str) -> Grid:
    try:
        return Grid(obj)
    except GridError as e:
        msg = str(e)  # a bad row's or cell's message starts with its index
        raise TaskError(f"{where}{'' if msg.startswith('[') else ': '}{msg}") from None


def read_text(path: str | Path) -> str:
    """A file's UTF-8 text; a file that cannot be read or decoded raises
    TaskError naming the file and, for bad text, the first bad byte."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except OSError as e:
        raise TaskError(f"{path.name}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise TaskError(f"{path.name}: not UTF-8 text: {e.reason} at byte {e.start}") from None


def load_task(path: str | Path) -> Task:
    """Read and validate one ARC task file."""
    path = Path(path)
    text = read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise TaskError(f"{path.name}: bad JSON: {e}") from None
    if not isinstance(data, dict) or "train" not in data or "test" not in data:
        raise TaskError(f"{path.name}: expected train and test sections")

    def examples(section: str, need_output: bool) -> tuple:
        items = data[section]
        if not isinstance(items, list) or (section == "train" and not items):
            raise TaskError(f"{path.name}: {section} must be a non-empty list")
        out = []
        for k, item in enumerate(items):
            where = f"{path.name}:{section}[{k}]"
            if not isinstance(item, dict) or "input" not in item:
                raise TaskError(f"{where}: missing input")
            gi = _grid_of(item["input"], where + ".input")
            go = None
            if "output" in item:
                go = _grid_of(item["output"], where + ".output")
            elif need_output:
                raise TaskError(f"{where}: missing output")
            out.append(Example(gi, go))
        return tuple(out)

    return Task(path.stem, examples("train", True), examples("test", False))


@dataclass
class ExampleResult:
    solved: bool
    attempt: int        # 1-based attempt that matched, 0 when none did
    predictions: list
    known: bool = True  # False when the file gave no expected output


@dataclass
class TaskReport:
    task_id: str
    model_text: str
    trace: tuple
    train: list
    test: list
    lhat: float
    seconds: float
    timed_out: bool

    def _score(self, results) -> float | None:
        """Fraction of known expected outputs solved; None when none are known."""
        scored = [r for r in results if r.known]
        if not scored:
            return None
        return sum(1 for r in scored if r.solved) / len(scored)

    @property
    def train_score(self) -> float | None:
        return self._score(self.train)

    @property
    def test_score(self) -> float | None:
        return self._score(self.test)


def _check(model, examples, cfg) -> list:
    results = []
    for ex in examples:
        preds = predict(model, ex.input, cfg, attempts=ATTEMPTS)
        solved, attempt = False, 0
        if ex.output is not None:
            for k, p in enumerate(preds, start=1):
                if p == ex.output:
                    solved, attempt = True, k
                    break
        results.append(ExampleResult(solved, attempt, preds, ex.output is not None))
    return results


def evaluate_task(task: Task, cfg: SearchConfig = DEFAULT_SEARCH) -> TaskReport:
    """Learn a model on the training pairs, then judge both example sets.

    A set counts as solved when every expected output is matched exactly by
    one of the first three predictions."""
    result = learn(task.train_pairs, cfg)
    train = _check(result.model, task.train, cfg)
    test = _check(result.model, task.test, cfg)
    return TaskReport(task.task_id, model_to_text(result.model), result.trace,
                      train, test, result.lhat, result.seconds, result.timed_out)


@dataclass(frozen=True)
class TaskFailure:
    """A task file that could not be read, and why."""
    task_id: str
    error: str


@dataclass
class BatchReport:
    reports: list
    errors: list = field(default_factory=list)  # TaskFailure records

    def _agg(self, picker):
        scores = [picker(r) for r in self.reports]
        scores = [s for s in scores if s is not None]
        n1 = sum(1 for s in scores if s == 1.0)
        n2 = sum(scores)
        return n1, n2

    @property
    def summary(self) -> str:
        n = len(self.reports)
        t = sum(r.seconds for r in self.reports) / n if n else 0.0
        tr1, tr2 = self._agg(lambda r: r.train_score)
        te1, te2 = self._agg(lambda r: r.test_score)
        return (f"tasks {n}  errors {len(self.errors)}  mean-learn {t:.1f}s  "
                f"train {tr1} / {tr2:.1f}  test {te1} / {te2:.1f}")


def _evaluate_path(path: str, cfg: SearchConfig) -> TaskReport | TaskFailure:
    try:
        task = load_task(path)
    except TaskError as e:
        return TaskFailure(Path(path).stem, str(e))
    return evaluate_task(task, cfg)


def evaluate_batch(paths, cfg: SearchConfig = DEFAULT_SEARCH, jobs: int = 1) -> BatchReport:
    """Evaluate many task files; order of reports is lexicographic by task id
    whatever the worker scheduling. A file that cannot be read becomes an
    error record and does not stop the others. Up to `jobs` worker
    processes run them, never more than there are files; with one, the
    calling process runs them alone. Workers are spawned, not forked: a
    fork copies the caller's locks as they stand, so it is unsafe once the
    caller runs threads."""
    check_setting("jobs", jobs, 1)
    paths = sorted(Path(p) for p in paths)
    # the pool starts all its workers at the first submit
    workers = min(jobs, len(paths))
    if workers <= 1:
        results = [_evaluate_path(str(p), cfg) for p in paths]
    else:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(_evaluate_path, [str(p) for p in paths],
                                    [cfg] * len(paths), chunksize=1))
    results.sort(key=lambda r: r.task_id)
    return BatchReport([r for r in results if isinstance(r, TaskReport)],
                       [r for r in results if isinstance(r, TaskFailure)])


def task_paths(root: str | Path) -> list[Path]:
    root = Path(root)
    if root.is_file():
        return [root]
    return sorted(root.glob("*.json"))


def report_jsonl(batch: BatchReport) -> str:
    """One JSON object per task, one line each, in task id order; a task
    file that could not be read gives `{"task": ..., "error": ...}`."""
    records = [{"task": e.task_id, "error": e.error} for e in batch.errors]
    for r in batch.reports:
        records.append({
            "task": r.task_id,
            "train_score": None if r.train_score is None else round(r.train_score, 4),
            "test_score": None if r.test_score is None else round(r.test_score, 4),
            "solved": r.test_score == 1.0,
            "attempts": [e.attempt for e in r.test],
            "steps": len(r.trace) - 1,
            "lhat": round(r.lhat, 4),
            "seconds": round(r.seconds, 3),
            "timed_out": r.timed_out,
            "model": r.model_text,
        })
    records.sort(key=lambda rec: rec["task"])
    return "\n".join(json.dumps(rec, sort_keys=True) for rec in records) + "\n"
