"""Spans recorded from outside the toolkit.

`Tracer.bindings` lists timing wrappers for public functions of the
toolkit's modules, for every module that holds them; `rebound` sets them for
the length of a block and puts the originals back. Each span keeps its name,
start, end, parent and group; a group is one update, one dev evaluation, one
checkpoint write or one decoded or scored batch. Spans stay in memory until
`write`.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute) pairs naming each traced function; a function is
# rebound in every toolkit module that holds it, so calls through any import
# of it are seen
FUNCTIONS = {
    "data.make_batches": ("roundtrip.data", "make_batches"),
    "autodiff.backward": ("roundtrip.autodiff", "backward"),
    "model.encode": ("roundtrip.model", "encode"),
    "model.sequence_nll": ("roundtrip.model", "sequence_nll"),
    "model.decode_step": ("roundtrip.model", "decode_step"),
    "model.teacher_forced_nll": ("roundtrip.model", "teacher_forced_nll"),
    "sampling.sample_translation": ("roundtrip.sampling", "sample_translation"),
    "checkpoint.save": ("roundtrip.checkpoint", "save"),
    "checkpoint.load": ("roundtrip.checkpoint", "load"),
    "evaluation.perplexity": ("roundtrip.evaluation", "perplexity"),
    "evaluation.decode_corpus": ("roundtrip.evaluation", "decode_corpus"),
    "evaluation.greedy_decode": ("roundtrip.evaluation", "greedy_decode"),
    "evaluation.beam_decode": ("roundtrip.evaluation", "beam_decode"),
}
METHODS = {
    "training.run": ("roundtrip.training", "Trainer", "run"),
    "training.compute_losses": ("roundtrip.training", "Trainer", "compute_losses"),
    "training.dev_perplexity": ("roundtrip.training", "Trainer", "dev_perplexity"),
    "training.adam_step": ("roundtrip.training", "Adam", "step"),
}
# spans that open a new group, and the group kind they open
GROUP_OPENERS = {
    "training.compute_losses": "update",
    "training.dev_perplexity": "dev",
    "checkpoint.save": "checkpoint",
    "model.teacher_forced_nll": "batch",
    "evaluation.greedy_decode": "batch",
    "evaluation.beam_decode": "sentence",
}
# spans that only contain layer spans; coverage counts the time inside the
# outermost spans that are not containers
CONTAINERS = {"phase", "training.run", "evaluation.perplexity", "evaluation.decode_corpus"}

NAME, START, END, PARENT, GROUP, INFO, PREVIOUS = range(7)  # fields of a span


@contextlib.contextmanager
def rebound(bindings):
    """Set each (owner, attribute, value) of `bindings` for the length of the
    block, then put the originals back in reverse order."""
    saved = []
    try:
        for owner, attr, new in bindings:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = "none"
        self.group = ("none", "none", 0)
        self.group_count = 0

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        kind = GROUP_OPENERS.get(name)
        previous = self.group
        if kind is not None:
            self.group_count += 1
            self.group = (self.phase, kind, self.group_count)
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.group, None,
                           previous])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, info=None) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[INFO] = info
        self.stack.pop()
        # an update's group stays open for its backward and optimizer step;
        # every other group ends with the span that opened it
        if GROUP_OPENERS.get(span[NAME], "update") != "update":
            self.group = span[PREVIOUS]

    def start_phase(self, phase: str) -> int:
        self.phase = phase
        self.group = (phase, "phase", 0)
        return self.open("phase")

    def end_phase(self, idx: int) -> None:
        """Close a phase; spans until the next phase belong to no phase."""
        self.close(idx)
        self.phase = "between"
        self.group = ("between", "none", 0)

    def wrap(self, name: str, fn, info=None):
        def traced(*args, **kwargs):
            idx = self.open(name)
            done = False
            try:
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                self.close(idx, info(args, out) if info is not None and done else None)
        traced.__wrapped__ = fn
        return traced

    def span_cost(self, calls: int = 20000, repeats: int = 5) -> float:
        """Seconds a traced call adds to the call it wraps: a traced no-op
        against the bare one, median over `repeats` loops of `calls`. It is
        timed on this tracer, whose span list is as long as the run left it;
        the loop's spans are dropped again."""
        def noop():
            return None

        traced = self.wrap("noop", noop)
        keep = len(self.spans)
        costs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                traced()
            t2 = time.perf_counter()
            del self.spans[keep:]
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
        return statistics.median(costs)

    # -- binding --------------------------------------------------------------

    def bindings(self) -> list:
        """(owner, attribute, wrapper) for every traced function in every
        toolkit module that holds it, and for every traced method."""
        infos = {
            "data.make_batches": _batches_info,
            "autodiff.backward": lambda args, out: len(args[0].nodes),
            "sampling.sample_translation": _sample_info,
            "evaluation.greedy_decode": lambda args, out: len(out),
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("roundtrip.") and m is not None]
        out = []
        for name, (mod_name, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[mod_name], attr)
            traced = self.wrap(name, original, infos.get(name))
            out.extend((module, attr, traced) for module in modules
                       if getattr(module, attr, None) is original)
        for name, (mod_name, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[mod_name], cls_name)
            out.append((cls, attr, self.wrap(name, getattr(cls, attr))))
        return out

    # -- output -------------------------------------------------------------

    def write(self, fh) -> None:
        """One JSON object per span, one span per line."""
        for i, s in enumerate(self.spans):
            fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                 "end": s[END], "parent": s[PARENT],
                                 "group": list(s[GROUP]), "info": s[INFO]}) + "\n")


def _batches_info(args, out):
    positions = sum(b.src_mask.size + b.tgt_mask.size for b in out)
    padded = positions - sum(float(b.src_mask.sum() + b.tgt_mask.sum()) for b in out)
    return (positions, padded)


def _sample_info(args, out):
    rows, steps = out.mask.shape
    return (steps, float(out.lengths.sum()), rows * steps, int(out.truncated.sum()), rows)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

TRAIN_PHASES = ("pretrain", "sampled", "hidden")


def self_times(spans) -> list[float]:
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def coverage(spans) -> dict:
    """Per phase: the share of its wall time inside the outermost spans that
    are not containers."""
    covered, wall = defaultdict(float), defaultdict(float)
    inside = []
    for s in spans:
        p = s[PARENT]
        inside.append(p >= 0 and (inside[p] or spans[p][NAME] not in CONTAINERS))
        if s[NAME] == "phase":
            wall[s[GROUP][0]] += s[END] - s[START]
        elif not inside[-1] and s[NAME] not in CONTAINERS:
            covered[s[GROUP][0]] += s[END] - s[START]
    return {phase: covered[phase] / w for phase, w in wall.items() if w > 0}


def overhead(spans, cost: float) -> dict:
    """Per phase: the time its spans added at `cost` seconds each, over its
    wall time."""
    added, wall = defaultdict(float), defaultdict(float)
    for s in spans:
        if s[NAME] == "phase":
            wall[s[GROUP][0]] += s[END] - s[START]
        else:
            added[s[GROUP][0]] += cost
    return {phase: added[phase] / w for phase, w in wall.items() if w > 0}


def layer_metrics(spans, counts: dict) -> dict:
    """Aggregate spans into the benchmark's per-layer metrics.

    `counts` carries what the session counted itself: sentences decoded per
    decode phase and the synth time.
    """
    own = self_times(spans)
    total = defaultdict(float)       # (phase, kind, name) -> seconds
    calls = defaultdict(int)
    updates = defaultdict(int)
    by_name = defaultdict(list)      # name -> durations
    info = defaultdict(list)         # (phase, name) -> infos
    run_self = defaultdict(float)
    for i, s in enumerate(spans):
        phase, kind, _ = s[GROUP]
        d = s[END] - s[START]
        total[(phase, kind, s[NAME])] += d
        calls[(phase, kind, s[NAME])] += 1
        by_name[s[NAME]].append(d)
        if s[INFO] is not None:
            info[(phase, s[NAME])].append(s[INFO])
        if s[NAME] == "training.compute_losses":
            updates[phase] += 1
        if s[NAME] == "training.run":
            run_self[phase] += own[i]

    def mean(name):
        values = by_name.get(name, [])
        return 1000 * sum(values) / len(values) if values else 0.0

    m = {"synth.generate_ms": 1000 * counts["synth_seconds"]}
    batches = [x for p in TRAIN_PHASES for x in info[(p, "data.make_batches")]]
    m["data.make_batches_ms_per_epoch"] = mean("data.make_batches")
    m["data.pad_frac"] = (sum(x[1] for x in batches) / sum(x[0] for x in batches)
                          if batches else 0.0)
    for p in TRAIN_PHASES:
        n = max(updates[p], 1)
        u = lambda name: total[(p, "update", name)]  # noqa: E731
        nodes = sum(info[(p, "autodiff.backward")])
        m[f"autodiff.nodes_per_update.{p}"] = nodes / n
        m[f"autodiff.backward_ms_per_update.{p}"] = 1000 * u("autodiff.backward") / n
        m[f"autodiff.backward_us_per_node.{p}"] = 1e6 * u("autodiff.backward") / max(nodes, 1)
        m[f"model.encode_ms_per_update.{p}"] = 1000 * u("model.encode") / n
        m[f"model.sequence_nll_ms_per_update.{p}"] = 1000 * u("model.sequence_nll") / n
        steps = calls[(p, "update", "model.decode_step")]
        m[f"model.decode_step_calls_per_update.{p}"] = steps / n
        m[f"model.decode_step_us_per_call.{p}"] = 1e6 * u("model.decode_step") / max(steps, 1)
        m[f"training.compute_losses_ms_per_update.{p}"] = \
            1000 * u("training.compute_losses") / n
        m[f"training.adam_ms_per_update.{p}"] = 1000 * u("training.adam_step") / n
        m[f"training.update_self_ms.{p}"] = 1000 * run_self[p] / n
    samples = info[("sampled", "sampling.sample_translation")]
    n_samples = max(len(samples), 1)
    m["sampling.sample_ms_per_update"] = \
        1000 * total[("sampled", "update", "sampling.sample_translation")] / n_samples
    m["sampling.steps_per_update"] = sum(x[0] for x in samples) / n_samples
    m["sampling.useful_row_step_frac"] = (sum(x[1] for x in samples)
                                          / max(sum(x[2] for x in samples), 1))
    m["sampling.truncated_frac"] = (sum(x[3] for x in samples)
                                    / max(sum(x[4] for x in samples), 1))
    m["training.dev_perplexity_ms"] = mean("training.dev_perplexity")
    m["checkpoint.save_ms"] = mean("checkpoint.save")
    m["checkpoint.load_ms"] = mean("checkpoint.load")
    greedy_n = max(counts["greedy_sentences"], 1)
    beam_n = max(counts["beam_sentences"], 1)
    m["evaluation.greedy_ms_per_sentence"] = \
        1000 * total[("greedy", "batch", "evaluation.greedy_decode")] / greedy_n
    m["evaluation.beam_ms_per_sentence"] = \
        1000 * total[("beam", "sentence", "evaluation.beam_decode")] / beam_n
    m["evaluation.beam_decode_step_calls_per_sentence"] = \
        calls[("beam", "sentence", "model.decode_step")] / beam_n
    score_batches = calls[("score", "batch", "model.teacher_forced_nll")]
    m["evaluation.score_ms_per_batch"] = \
        1000 * total[("score", "batch", "model.teacher_forced_nll")] / max(score_batches, 1)
    for p, kind in (("score", "batch"), ("greedy", "batch"), ("beam", "sentence")):
        key = (p, kind, "model.decode_step")
        m[f"model.decode_step_us_per_call.{p}"] = 1e6 * total[key] / max(calls[key], 1)
    return m
