"""Benchmark of the roundtrip toolkit: one seeded session per workload.

    python3 perfbench/run.py --workload rev32 --seed 1 --seconds 36 --trace 0

Run it from the repository root. The session sets up, pretrains, then
cycles: the pretrain goes on, new fine-tunes with the sampled round trip and
with hidden-state reconstruction start from its newest checkpoint, which is
then scored with teacher forcing and decoded greedily and with beam 5. With `--trace 0` the last line of standard output is a JSON
object with the end-to-end metrics; with `--trace 1` the session runs
traced, and the metrics are the per-layer ones, with span coverage and
tracing overhead. Spans and a summary of each traced run are written under
`.perfbench-out/`.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads; the program itself is
# single-threaded Python
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402,F401  (loaded before set-up is timed)

OUT = Path(".perfbench-out")

END_TO_END = {
    "setup_s": "s", "pretrain_tok_s": "tok/s", "sampled_tok_s": "tok/s",
    "hidden_tok_s": "tok/s", "score_tok_s": "tok/s", "peak_rss_mb": "MB",
}
# measured and printed, but not among the bounded metrics: across seeds and
# runs their quartile spread reached the largest bound allowed (README)
UNBOUNDED = {"greedy_sent_s": ("greedy", "sent/s"), "beam_sent_s": ("beam", "sent/s")}


def per_layer_unit(name: str) -> str:
    for part, unit in (("_ms", "ms"), ("_us_", "us"), ("_frac", "fraction"),
                       ("nodes_", "nodes"), ("_calls_", "calls"), ("steps_", "steps")):
        if part in name:
            return unit
    raise KeyError(name)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="time given to the cycles of training, scoring, decoding and set-up")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="shrink the workload to a seconds-long run (benchmark tests)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import workloads

    if not (workloads.SRC / "roundtrip" / "__init__.py").is_file():
        print(f"error: the toolkit's sources are not at {workloads.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    if args.small:
        w = workloads.small(w)
    setup = workloads.set_up(w, args.seed)

    # the toolkit is imported from here on; set-up left its modules loaded
    import session as sess
    import tracer as tr

    run_dir = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    tracer = tr.Tracer() if args.trace else None
    session = sess.Session(w, args.seed, args.seconds, setup, str(run_dir / "session"),
                           tracer)
    try:
        session.run()
    finally:
        session.cleanup()
    if not args.trace:
        rates = session.rates()
        metrics = {
            "setup_s": workloads.median(setup.seconds),
            "pretrain_tok_s": rates["pretrain"], "sampled_tok_s": rates["sampled"],
            "hidden_tok_s": rates["hidden"], "score_tok_s": rates["score"],
            "peak_rss_mb": sess.peak_rss_mb(),
        }
        units = END_TO_END
        for name, (phase, unit) in UNBOUNDED.items():
            print(f"{name:<52} {rates[phase]:14.6g} {unit} (not bounded)")
    else:
        totals = session.totals()
        counts = {"synth_seconds": workloads.median(setup.generate_seconds),
                  "greedy_sentences": totals["greedy"][0],
                  "beam_sentences": totals["beam"][0]}
        metrics = tr.layer_metrics(tracer.spans, counts)
        cover = tr.coverage(tracer.spans)
        overhead = tr.overhead(tracer.spans, tracer.span_cost())
        seconds = {p: t for p, (_, t) in totals.items()}
        for name, share in (("trace.span_coverage_frac", cover),
                            ("trace.overhead_frac", overhead)):
            metrics[name] = sum(share[p] * seconds[p] for p in seconds) / sum(seconds.values())
        units = {name: per_layer_unit(name) for name in metrics}
        run_dir.mkdir(parents=True, exist_ok=True)
        with gzip.open(run_dir / "spans.jsonl.gz", "wt", encoding="utf-8") as fh:
            tracer.write(fh)
        summary = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
                   "phase_seconds": seconds,
                   "coverage": cover, "overhead": overhead, "metrics": metrics}
        (run_dir / "summary.json").write_text(json.dumps(summary, indent=1))
        for p in totals:
            print(f"phase {p:<9} coverage {cover.get(p, 0):.3f}  "
                  f"tracing overhead {overhead[p]:.4f}")

    failures = session.checks.failures()
    for f in failures:
        print(f"CHECK FAILED {f}")
    for name, value in metrics.items():
        print(f"{name:<52} {value:14.6g} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": session.operations(),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
