"""One run of one workload in a fresh interpreter.

``cmaqf`` keeps a process-wide cache of lag covariances, so a second call in
the same process would time cache hits; every measured call therefore gets its
own interpreter.  Usage::

    python3 perfbench/child.py --workload NAME --seed N --mode run|setup --trace 0|1 --out FILE

``--mode setup`` stops right before the first public call.  The result (set-up
time, call wall time, peak RSS, readouts and, when traced, the per-layer
metrics) is written as JSON to ``--out``.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here: before cmaqf is imported

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def peak_rss_mb() -> float:
    """Peak resident set of this process image.

    ``VmHWM`` starts afresh at exec; ``ru_maxrss`` would also count the
    parent's resident set at the fork that started this interpreter.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "setup"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import cmaqf  # noqa: F401

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    workdir = out.parent / f"{out.stem}.work"
    workdir.mkdir(parents=True, exist_ok=True)

    recorder = installed = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        installed = spans.install(recorder)
    inputs = workload.build(args.seed, workdir)
    t_call = time.perf_counter()
    doc = {"setup_s": t_call - T0}
    if args.mode == "run":
        result = workload.call(inputs)
        doc["wall_s"] = time.perf_counter() - t_call
        if installed is not None:
            installed.remove()
            doc["layers"] = spans.layer_metrics(recorder.spans, recorder.rollups)
            recorder.write_jsonl(out.with_suffix(".spans.jsonl"))
        doc["peak_rss_mb"] = peak_rss_mb()
        doc["readout"] = workload.readout(inputs, result)
    out.write_text(json.dumps(doc), encoding="utf-8")


if __name__ == "__main__":
    main()
