"""The benchmark's tracing hooks against the package they wrap.

`bench/run.py` times each layer by replacing module attributes (such as
`parsing.parse` or `lang.apply_model`) with traced versions. A refactor that
renames such a function, or stops calling it through the wrapped name,
leaves its per-layer metrics at zero without any error. This test installs
the hooks on the imported package, evaluates the nested task, and checks
that every hook fired and that `restore` puts every original back.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

# by module path: the package exports a function named `learn`
MODS = {name: importlib.import_module(f"gridmdl.{name}")
        for name in ("lang", "coding", "parsing", "learn", "tasks")}

BENCH = Path(__file__).resolve().parents[1] / "bench"
# spans no call reaches any more: `parse` sums `coding.slot_terms` pieces
# and never calls `l_parse_tree`
UNREACHED = {"coding.l_parse_tree"}


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the body runs
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture()
def bench_modules(monkeypatch):
    return _load("run", monkeypatch), _load("tracing", monkeypatch)


def test_every_traced_hook_fires_and_restores(bench_modules, nested_task_file, monkeypatch):
    run, tracing = bench_modules
    wrapped = []  # (module, attribute, span name, original)
    wrap = tracing.wrap

    def recording_wrap(tracer, module, attr, name, **kw):
        orig = wrap(tracer, module, attr, name, **kw)
        wrapped.append((module, attr, name, orig))
        return orig

    monkeypatch.setattr(tracing, "wrap", recording_wrap)
    tasks = MODS["tasks"]
    task = tasks.load_task(nested_task_file)
    tracer = tracing.Tracer()
    patches = run.install_tracing(tracer, {**MODS, "tracing": tracing})
    try:
        tasks.evaluate_task(task, MODS["learn"].SearchConfig())
    finally:
        patches.restore()

    assert wrapped
    stats = tracing.layer_stats(tracer)
    silent = {name for _, _, name, _ in wrapped
              if name not in UNREACHED and name not in stats}
    assert not silent, f"hooks that recorded no call: {sorted(silent)}"
    for module, attr, name, orig in wrapped:
        assert getattr(module, attr) is orig, f"{module.__name__}.{attr} ({name}) not restored"
