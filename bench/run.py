"""Benchmark of gridmdl's learn and predict entry points on offline workloads.

Usage, from the repository root:

    python3 bench/run.py --workload arc-learn --seed 1 --seconds 20 --trace 0

With `--trace 0` it prints the end-to-end metrics, measured with tracing
off; with `--trace 1` it alternates untraced and traced passes and prints the
per-layer metrics. The last line of standard output is one JSON object
holding `correct`, `attempted`, `failed` and `metrics`. See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import random
import resource
import signal
import statistics
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("suite-learn", "arc-learn", "predict-fresh")
SETUP_REPS = 3          # set-ups per run, at least; setup_s is their median
SETUP_MIN_S = 3.0       # and more set-ups until this much time has passed
# passes whose item latencies give item_s_p50 and item_s_tail: a fixed number
# per workload, so that the samples, and the tail's percentile, do not hang on
# host speed; a run makes at least this many passes
SAMPLE_PASSES = {"suite-learn": 16, "arc-learn": 2, "predict-fresh": 1}
FRESH_FAMILY = "recolour"  # predict-fresh: family of the learned model
# predict-fresh: fresh inputs in one pass; enough that the tail is a
# percentile over many distinct inputs, not the slowest input a seed drew
FRESH_INPUTS = 800
BASELINE = HERE / "baseline.json"
PROBE_EVERY_S = 0.005       # the speed probe's period
PROBE_REFERENCE_S = 0.0001  # the probe's duration at reference speed
PROBE_LEAST = 3             # probes that scale an interval, at least


class SetupError(Exception):
    """The workload cannot be built in this checkout."""


def import_fresh():
    """Import gridmdl from this checkout's sources, dropping earlier imports
    so each set-up pays for its own; returns the modules by name."""
    for name in [m for m in sys.modules if m == "gridmdl" or m.startswith("gridmdl.")
                 or m in ("gen", "tracing")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    try:
        pkg = importlib.import_module("gridmdl")
    except ImportError as e:
        raise SetupError(f"cannot import gridmdl from {SRC}: {e}") from None
    if Path(pkg.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"gridmdl imported from {pkg.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"gridmdl.{name}")
            for name in ("grids", "lang", "coding", "parsing", "learn", "tasks")}
    mods["gen"] = importlib.import_module("gen")
    mods["tracing"] = importlib.import_module("tracing")
    return mods


def probe_work() -> int:
    """A fixed piece of interpreter-bound work, about 0.1 ms on the 2-core
    host the baseline was measured on."""
    d, s = {}, 0
    for i in range(300):
        d[i & 31] = d.get(i & 31, 0) + i
        s += len(str(i))
    return s


class SpeedProbe:
    """Times `probe_work` every PROBE_EVERY_S, from a SIGALRM handler in the
    benchmark's own thread, so that times can be given in reference seconds.

    On a shared host the same pure-Python work takes from 0.07 s to 0.18 s
    within a minute, with CPU time equal to wall time: the CPU itself runs
    slower or faster, and it changes speed within tens of milliseconds. A
    time in reference seconds is the interval's length, less the probes run
    inside it, times PROBE_REFERENCE_S over the mean duration of the probes in
    the interval, widened on both sides until it holds PROBE_LEAST of them.
    It is the time the interval would have taken had the probe run at its
    reference speed, so a slower program still reads slower, while the host's
    drift cancels."""

    def __init__(self, clock=time.perf_counter, work=probe_work):
        self.clock, self.work = clock, work
        self.stamps = array("d")
        self.cum = array("d", [0.0])  # running total of probe durations
        self._old = None

    def sample(self, *_):
        t0 = self.clock()
        self.work()
        self.stamps.append(t0)
        self.cum.append(self.cum[-1] + self.clock() - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *_):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _probe_s(self, a: float, b: float) -> tuple[int, float]:
        """Number and total duration of the probes started in [a, b)."""
        i, j = bisect.bisect_left(self.stamps, a), bisect.bisect_left(self.stamps, b)
        return j - i, self.cum[j] - self.cum[i]

    def ref_s(self, a: float, b: float) -> float:
        """Reference seconds of the interval [a, b]."""
        if len(self.stamps) < PROBE_LEAST:
            raise RuntimeError("speed probe: too few samples")
        n, total = self._probe_s(a, b)
        inside = total
        pad = 0.0
        while n < PROBE_LEAST:
            pad = 2 * pad + PROBE_EVERY_S
            n, total = self._probe_s(a - pad, b + pad)
        return (b - a - inside) * PROBE_REFERENCE_S * n / total


class CallCounter:
    """Bare call counter around `coding.l_task`, the learner's model scorer."""

    def __init__(self, coding):
        self.calls = 0
        inner = coding.l_task

        def counted(*args, **kwargs):
            self.calls += 1
            return inner(*args, **kwargs)

        coding.l_task = counted


@dataclass
class Workload:
    name: str
    mods: dict
    counter: CallCounter
    cfg: object
    items: list                 # tasks, or (model, input, expected output)
    setup_lhat: float = 0.0     # predict-fresh: score of the learned model
    setup_learn: tuple = ()     # predict-fresh: (evaluations, learning time, start, end)


def setup(name: str, seed: int) -> Workload:
    """Import, generate the workload's inputs, and learn predict-fresh's model."""
    mods = import_fresh()
    gen, tasks = mods["gen"], mods["tasks"]
    counter = CallCounter(mods["coding"])
    cfg = mods["learn"].SearchConfig()
    if name == "suite-learn":
        items = gen.suite_tasks()
        random.Random(f"suite:{seed}").shuffle(items)
        return Workload(name, mods, counter, cfg, items)
    if name == "arc-learn":
        return Workload(name, mods, counter, cfg, gen.arc_tasks(seed))
    colours = gen.colour_map(seed)
    # a bank layout to learn from, as in arc-learn; the fresh inputs are drawn anew
    rng = gen.family_rng("fresh", gen.BANK_SEED, FRESH_FAMILY, 0)
    rule = gen.sample_rule(rng, FRESH_FAMILY)
    task = gen.rule_task(rng, rule, FRESH_FAMILY, colours)
    t0 = time.perf_counter()
    report = tasks.evaluate_task(task, cfg)
    learned = (counter.calls, report.seconds, t0, time.perf_counter())
    if report.timed_out:
        raise SetupError(f"{task.task_id}: learning timed out in set-up")
    model = mods["lang"].parse_model(report.model_text)
    fresh = gen.family_rng("fresh-input", seed, FRESH_FAMILY, 0)
    items = [(model, *gen.rule_pair(fresh, rule, colours)) for _ in range(FRESH_INPUTS)]
    return Workload(name, mods, counter, cfg, items, setup_lhat=report.lhat,
                    setup_learn=learned)


# tracing

def install_tracing(tracer, mods):
    """Wrap each name that one layer looks up to call into another."""
    tr = mods["tracing"]
    lang, coding, parsing, learn, tasks = (
        mods[m] for m in ("lang", "coding", "parsing", "learn", "tasks"))
    default_parse = parsing.DEFAULT_PARSE

    def parse_note(args, kwargs, result):
        cfg = args[3] if len(args) > 3 else kwargs.get("cfg", default_parse)
        return (cfg.max_trees_before_sort, len(result) == 0)

    p = tr.Patches()
    p.wrap(tracer, tasks, "evaluate_task", "tasks.evaluate_task")
    p.wrap(tracer, tasks, "learn", "learn.learn",
           note=lambda a, k, r: len(r.trace) - 1)
    p.wrap(tracer, tasks, "predict", "learn.predict")
    p.wrap(tracer, learn, "predict", "learn.predict")
    p.wrap(tracer, learn, "propose_refinements", "learn.propose",
           note=lambda a, k, r: len(r))
    p.wrap(tracer, learn, "apply_refinement", "learn.apply_refinement")
    p.wrap(tracer, coding, "l_task", "coding.l_task")
    p.wrap(tracer, coding, "l_pair_model", "coding.l_pair_model")
    p.wrap(tracer, coding, "l_parse_tree", "coding.l_parse_tree")
    p.wrap(tracer, coding, "l_delta", "coding.l_delta")
    p.wrap(tracer, parsing, "read", "parsing.read")
    p.wrap(tracer, parsing, "parse", "parsing.parse", note=parse_note)
    p.wrap(tracer, parsing, "build_index", "parsing.build_index",
           note=lambda a, k, r: len(r.candidates))
    p.wrap(tracer, parsing, "segment", "grids.segment")
    p.wrap(tracer, parsing, "write", "parsing.write")
    p.wrap(tracer, lang, "apply_model", "lang.apply_model", outermost=True)
    return p


PER_LAYER = (
    ("parsing.parse.calls", "count"), ("parsing.parse.self_s", "s"),
    ("parsing.parse.share", "ratio"), ("parsing.parse.combos_mean", "count"),
    ("parsing.parse.empty_share", "ratio"), ("parsing.parse.cap_share", "ratio"),
    ("coding.l_parse_tree.calls", "count"), ("coding.l_parse_tree.self_s", "s"),
    ("coding.l_delta.self_s", "s"),
    ("parsing.read.calls", "count"), ("parsing.read.hit_rate", "ratio"),
    ("parsing.read.self_s", "s"), ("lang.apply_model.self_s", "s"),
    ("coding.l_pair_model.self_s", "s"),
    ("coding.l_task.calls", "count"), ("coding.l_task.self_s", "s"),
    ("coding.l_task.error_share", "ratio"),
    ("parsing.build_index.calls", "count"), ("parsing.build_index.self_s", "s"),
    ("parsing.build_index.candidates_mean", "count"),
    ("parsing.build_index.cap_share", "ratio"),
    ("grids.segment.calls", "count"), ("grids.segment.self_s", "s"),
    ("learn.learn.self_s", "s"),
    ("learn.propose.calls", "count"), ("learn.propose.self_s", "s"),
    ("learn.proposals", "count"), ("learn.steps", "count"),
    ("learn.accept_ratio", "ratio"), ("learn.apply_refinement.self_s", "s"),
    ("learn.predict.calls", "count"), ("learn.predict.self_s", "s"),
    ("parsing.write.self_s", "s"), ("tasks.evaluate_task.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(tracers, mods, wall_s: float) -> dict[str, float]:
    """Per-layer metrics per pass, averaged over the traced passes.

    Cap and waste counters come from return values and child spans only:
    a parse's combos are its `l_parse_tree` children, it hits the cap when
    they reach `max_trees_before_sort`, and an index hits the cap at the
    parser's candidate limit."""
    tr = mods["tracing"]
    index_cap = getattr(mods["parsing"], "_MAX_CANDIDATES", 512)
    agg: dict[str, object] = {}
    acc = {k: 0 for k in ("combos", "parse_empty", "parse_cap", "read_hit", "read_miss",
                          "task_err", "cands", "index_cap", "proposals", "steps")}
    for t in tracers:
        for name, st in tr.layer_stats(t).items():
            a = agg.setdefault(name, tr.LayerStats())
            a.calls += st.calls
            a.total_s += st.total_s
            a.self_s += st.self_s
        kids = tr.children(t)
        for sid, name in enumerate(t.names):
            note = t.notes.get(sid)
            if name == "parsing.parse":
                combos = sum(1 for c in kids[sid] if t.names[c] == "coding.l_parse_tree")
                cap, empty = note
                acc["combos"] += combos
                acc["parse_cap"] += combos >= cap
                acc["parse_empty"] += empty
            elif name == "parsing.read":
                if any(t.names[c] == "parsing.parse" for c in kids[sid]):
                    acc["read_miss"] += 1
                elif not any(t.names[c] == "lang.apply_model" and c in t.errors
                             for c in kids[sid]):
                    acc["read_hit"] += 1
            elif name == "coding.l_task":
                acc["task_err"] += sid in t.errors
            elif name == "parsing.build_index":
                acc["cands"] += note
                acc["index_cap"] += note >= index_cap
            elif name == "learn.propose":
                acc["proposals"] += note
            elif name == "learn.learn":
                acc["steps"] += note
    n = max(len(tracers), 1)

    def calls(name):
        return agg[name].calls if name in agg else 0

    def self_s(name):
        return agg[name].self_s / n if name in agg else 0.0

    def share(x, name):
        return x / calls(name) if calls(name) else 0.0

    reads = acc["read_hit"] + acc["read_miss"]
    out = {f"{name}.calls": calls(name) / n for name in (
        "parsing.parse", "coding.l_parse_tree", "parsing.read", "coding.l_task",
        "parsing.build_index", "grids.segment", "learn.propose", "learn.predict")}
    out.update({f"{name}.self_s": self_s(name) for name in (
        "parsing.parse", "coding.l_parse_tree", "coding.l_delta", "parsing.read",
        "lang.apply_model", "coding.l_pair_model", "coding.l_task",
        "parsing.build_index", "grids.segment", "learn.learn", "learn.propose",
        "learn.apply_refinement", "learn.predict", "parsing.write",
        "tasks.evaluate_task")})
    parse_total = agg["parsing.parse"].total_s / n if "parsing.parse" in agg else 0.0
    out.update({
        "parsing.parse.share": parse_total / wall_s if wall_s else 0.0,
        "parsing.parse.combos_mean": share(acc["combos"], "parsing.parse"),
        "parsing.parse.empty_share": share(acc["parse_empty"], "parsing.parse"),
        "parsing.parse.cap_share": share(acc["parse_cap"], "parsing.parse"),
        "parsing.read.hit_rate": acc["read_hit"] / reads if reads else 0.0,
        "coding.l_task.error_share": share(acc["task_err"], "coding.l_task"),
        "parsing.build_index.candidates_mean": share(acc["cands"], "parsing.build_index"),
        "parsing.build_index.cap_share": share(acc["index_cap"], "parsing.build_index"),
        "learn.proposals": acc["proposals"] / n,
        "learn.steps": acc["steps"] / n,
        "learn.accept_ratio": share(acc["steps"], "coding.l_task"),
    })
    return out


# one pass over the workload

@dataclass
class PassResult:
    span: tuple                 # (start, end) of the pass, perf_counter seconds
    items: list                 # (start, end) of each item
    learn_s: list               # each item's learning time, as the learner timed it
    solved: int
    failed: int
    evals: int
    lhats: list
    descends: bool
    fingerprint: str

    def in_ref_seconds(self, probe: SpeedProbe):
        """(pass time, item latencies, learning time), in reference seconds."""
        lat = [probe.ref_s(a, b) for a, b in self.items]
        learn_s = sum(s * x / (b - a) for s, x, (a, b) in zip(self.learn_s, lat, self.items))
        return probe.ref_s(*self.span), lat, learn_s


def run_pass(w: Workload, tracer=None) -> PassResult:
    tasks, learn = w.mods["tasks"], w.mods["learn"]
    h = hashlib.sha256()
    spans, learn_s, lhats = [], [], []
    solved = failed = 0
    descends = True
    evals0 = w.counter.calls
    start = time.perf_counter()
    for k, item in enumerate(w.items):
        if tracer is not None:
            tracer.item = k
        t0 = time.perf_counter()
        try:
            if w.name == "predict-fresh":
                model, gi, go = item
                preds = learn.predict(model, gi, w.cfg, attempts=tasks.ATTEMPTS)
                spans.append((t0, time.perf_counter()))
                learn_s.append(0.0)
                solved += go in preds
                lines = [p.to_text() for p in preds]
            else:
                report = tasks.evaluate_task(item, w.cfg)
                spans.append((t0, time.perf_counter()))
                learn_s.append(report.seconds)
                solved += sum(r.solved for r in report.test)
                failed += report.timed_out
                lhats.append(report.lhat)
                scores = [s.lhat for s in report.trace]
                descends &= abs(scores[0] - 2.0) < 1e-6 and all(
                    b < a for a, b in zip(scores, scores[1:]))
                lines = ([report.task_id] + [s.describe() for s in report.trace]
                         + [report.model_text]
                         + [p.to_text() for r in report.train + report.test
                            for p in r.predictions])
        except Exception as e:  # an item that raises counts as failed
            spans.append((t0, time.perf_counter()))
            learn_s.append(0.0)
            failed += 1
            lines = [f"error {type(e).__name__}"]
        h.update("\n".join(lines).encode() + b"\n\n")
    return PassResult((start, time.perf_counter()), spans, learn_s, solved, failed,
                      w.counter.calls - evals0, lhats, descends, h.hexdigest())


def tail(values: list) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, as (value,
    percentile); with ten samples or fewer, the maximum."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def measure(w: Workload, seconds: float, traced: bool):
    """Repeat rounds of passes while another round fits in `seconds`. A round
    is one untraced pass, or in a traced run an untraced and a traced pass.
    Untraced runs make at least the workload's `SAMPLE_PASSES`, traced runs at
    least one round."""
    plain, with_trace, tracers = [], [], []
    least = 1 if traced else SAMPLE_PASSES[w.name]
    start = last = time.perf_counter()
    while True:
        plain.append(run_pass(w))
        if traced:
            tracer = w.mods["tracing"].Tracer()
            patches = install_tracing(tracer, w.mods)
            try:
                with_trace.append(run_pass(w, tracer))
            finally:
                patches.restore()
            tracers.append(tracer)
        now = time.perf_counter()
        if len(plain) >= least and (now - start) + (now - last) > seconds:
            return plain, with_trace, tracers
        last = now


def recorded_fingerprint(workload: str, seed: int) -> str | None:
    """The fingerprint baseline.json holds for this workload and seed, if any."""
    if not BASELINE.exists():
        return None
    return json.loads(BASELINE.read_text())["fingerprints"].get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with SpeedProbe() as probe:
        setups, learned = [], []
        try:
            while len(setups) < SETUP_REPS or sum(b - a for a, b in setups) < SETUP_MIN_S:
                # the previous set-up's modules are garbage; collect them untimed
                gc.collect()
                t0 = time.perf_counter()
                w = setup(args.workload, args.seed)
                setups.append((t0, time.perf_counter()))
                learned.append(w.setup_learn)
        except SetupError as e:
            print(f"bench: {e}", file=sys.stderr)
            return 2
        plain, traced, tracers = measure(w, args.seconds, bool(args.trace))
    # end-to-end times are in reference seconds (see SpeedProbe), span times are not
    plain_ref = [r.in_ref_seconds(probe) for r in plain]
    runs = plain + traced
    prints = {r.fingerprint for r in runs}
    attempted = sum(len(r.items) for r in plain)
    failed = sum(r.failed for r in plain)
    first = plain[0]
    expected = recorded_fingerprint(args.workload, args.seed)
    if expected not in (None, first.fingerprint):
        print(f"bench: fingerprint differs from {BASELINE.name}: {expected}", file=sys.stderr)
    correct = (len(prints) == 1 and expected in (None, first.fingerprint)
               and failed == 0 and all(r.descends for r in runs) and first.solved > 0)
    wall = statistics.median(x[0] for x in plain_ref)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)}"
          f"  items/pass {len(w.items)}")
    print(f"fingerprint {first.fingerprint}")
    if args.trace:
        traced_wall = statistics.median(r.span[1] - r.span[0] for r in traced)
        metrics = layer_metrics(tracers, w.mods, traced_wall)
        metrics["trace.overhead_s"] = (
            statistics.median(probe.ref_s(*r.span) for r in traced) - wall)
        units = dict(PER_LAYER)
        for name, _ in PER_LAYER:
            print(f"  {name:40} {metrics[name]:14.6g} {units[name]}")
    else:
        if args.workload == "predict-fresh":
            rate = statistics.median(
                n * (b - a) / (s * probe.ref_s(a, b)) for n, s, a, b in learned)
            lhats = [w.setup_lhat]
        else:
            rate = sum(r.evals for r in plain) / sum(x[2] for x in plain_ref)
            lhats = first.lhats
        lat = [x for _, ls, _ in plain_ref[:SAMPLE_PASSES[args.workload]] for x in ls]
        tail_v, tail_p = tail(lat)
        values = {
            "setup_s": (statistics.median(probe.ref_s(a, b) for a, b in setups), "s"),
            "wall_s": (wall, "s"),
            "item_s_p50": (statistics.median(lat), "s"),
            "item_s_tail": (tail_v, "s"),
            "evals_per_s": (rate, "1/s"),
            "lhat_mean": (statistics.fmean(lhats), "ratio"),
            "solved": (first.solved, "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        judged = (len(w.items) if args.workload == "predict-fresh"
                  else sum(len(t.test) for t in w.items))
        notes = {
            "setup_s": f"median of {len(setups)}",
            "item_s_p50": f"n={len(lat)}",
            "item_s_tail": f"p{tail_p:.1f} of n={len(lat)}",
            "solved": f"of {judged} test grids per pass",
        }
        for name, (v, unit) in values.items():
            print(f"  {name:14} {v:14.6g} {unit:6} {notes.get(name, '')}")
        print(f"  {'fail_rate':14} {failed / attempted:14.6g} {'ratio':6} "
              f"{failed} of {attempted}")
        metrics = {k: v for k, (v, _) in values.items()}
        units = {k: u for k, (_, u) in values.items()}
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
