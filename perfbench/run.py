"""smcmix benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload select_overfit --seed 1 --seconds 32 --trace 0

The run builds the workload's inputs from ``--seed`` three times (the
median counts), then repeats the workload's fixed pass for ``--seconds``
seconds, one pass after the other from a single caller.  A pass is a list
of timed units.  The first pass runs traced and is not timed; it warms
caches and captures the fits whose quality is reported.  With
``--trace 0`` every further pass is untraced; with ``--trace 1`` untraced
and traced passes alternate and the per-layer metrics are medians over the
traced ones.  Every pass's outputs are checked and must equal those of the
first pass.  Times are rescaled to a reference speed (see
``_Rescaler``); ``wall_s`` sums each unit's median over the untraced
passes.

A summary table goes to standard output, followed by one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The environment,
every metric and the per-pass times are also written to
``.perfbench_out/<workload>-seed<seed>-trace<trace>.json`` and the spans
to the matching ``.spans.jsonl`` file.
"""

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("ingest_classify", "select_overfit", "mc_recovery")

# Unit of every end-to-end metric in the JSON result.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "class_rate": "frac",
    "nll_per_traj": "nats",
}
# Quality outputs that are per-layer metrics of the traced run; they read 0
# on a workload that runs no sweep or scores no shape.
QUALITY_LAYER = {"bic_hit_rate": "selection.bic_hit_rate", "err_shape": "sojourn.err_shape"}


def _pin_environment() -> None:
    # Must run before numpy loads.  OpenBLAS otherwise starts a second
    # thread for products this small, and SMCMIX_THREADS is unset so the
    # program's default parallelism applies.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ.pop("SMCMIX_THREADS", None)


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    import numpy
    import scipy

    cpu = platform.machine() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# The shared machine this benchmark was built on runs a process at one of
# two speeds, up to 2x apart, and switches between them every few seconds;
# CPU time follows wall time.  A fixed calibration kernel, timed right
# before and right after every measured interval, tracks that speed.  It
# mixes interpreter-bound work with a pointer chase through an 8 MB table,
# because the workloads slow down less than pure interpreter work does.
# Every time an end-to-end metric reports is rescaled to the speed at which
# the kernel takes CALIBRATION_NOMINAL_S; the raw times are printed and
# kept in the result file too.
CALIBRATION_NOMINAL_S = 0.03
_CHASE_SIZE = 1 << 20


class _Rescaler:
    """Rescales back-to-back intervals to the reference speed, using the
    calibration kernel timed at both ends of each interval."""

    def __init__(self):
        # A full-period linear congruential step modulo the table size, so
        # the chase visits every slot in an order no prefetcher follows.
        self.chase = array(
            "l", ((1103515245 * i + 12345) & (_CHASE_SIZE - 1) for i in range(_CHASE_SIZE))
        )
        self.log = []
        self.restart()

    def kernel_s(self) -> float:
        """Time of the fixed calibration kernel (about 30 ms)."""
        t0 = time.perf_counter()
        acc = 0.0
        table = {}
        items = []
        for i in range(40_000):
            x = (i * 2654435761) % 1_000_003
            acc += (x**0.5) * 1e-3
            table[x & 1023] = acc
            items.append(x)
            if len(items) > 64:
                items.sort()
                del items[:32]
        slot = 0
        for _ in range(60_000):
            slot = self.chase[slot]
        return time.perf_counter() - t0

    def restart(self) -> None:
        self.last = self.kernel_s()

    def __call__(self, raw: float) -> float:
        now = self.kernel_s()
        self.log.append((self.last, now))
        scaled = raw * CALIBRATION_NOMINAL_S / (0.5 * (self.last + now))
        self.last = now
        return scaled


def _parse(argv):
    p = argparse.ArgumentParser(description="smcmix benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    return p.parse_args(argv)


def _measure(wl, seconds: float, trace: bool, tracer, rescale):
    """Run passes for ``seconds``; return the per-pass records and the
    first pass's results and captured fits."""
    deadline = time.perf_counter() + seconds
    passes = []
    reference = first = None
    kinds = ("plain", "traced") if trace else ("plain",)
    while True:
        index = len(passes)
        kind = "warmup" if index == 0 else kinds[(index - 1) % len(kinds)]
        if index > 0:
            estimate = _median([sum(p["raw_seconds"]) for p in passes])
            measured = {p["kind"] for p in passes}
            if set(kinds) <= measured and time.perf_counter() + estimate > deadline:
                break
        gc.collect()
        tracer.begin_pass(index)
        results, raw_seconds, unit_seconds = [], [], []
        with tracer.installed() if kind != "plain" else contextlib.nullcontext():
            rescale.restart()
            for unit in wl.units():
                t0 = time.perf_counter()
                try:
                    results.append(unit())
                except Exception as exc:  # a raising unit fails its ops
                    results.append(exc)
                raw_seconds.append(time.perf_counter() - t0)
                unit_seconds.append(rescale(raw_seconds[-1]))
        ops = wl.check(results)
        if reference is None:
            reference = [op.signature for op in ops]
            first = (results, tracer.fits)
        errors = []
        for op, expected in zip(ops, reference):
            if op.error is not None:
                errors.append(op.error)
            elif op.signature != expected:
                errors.append("output differs from the first pass")
        passes.append({
            "index": index,
            "kind": kind,
            "unit_seconds": unit_seconds,
            "raw_seconds": raw_seconds,
            "ops": len(ops),
            "errors": errors,
        })
    return passes, first


def _pass_seconds(passes, kind: str, key: str = "unit_seconds") -> float:
    """Time of the fixed pass: each unit's median over the passes of this
    kind, summed over the units."""
    runs = [p[key] for p in passes if p["kind"] == kind]
    return sum(_median(unit) for unit in zip(*runs))


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "smcmix" / "__init__.py").is_file():
        print(f"perfbench: no smcmix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    rescale = _Rescaler()
    start = time.perf_counter()
    _pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    import smcmix
    from tracer import LAYER_METRICS, Tracer, layer_metrics
    from workloads import WORKLOADS

    import_raw = time.perf_counter() - start
    import_s = rescale(import_raw)
    if not Path(smcmix.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported smcmix from {smcmix.__file__}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        setup_raw, setup_times = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl = WORKLOADS[args.workload](args.seed, workdir, args.tiny)
            wl.setup()
            setup_raw.append(time.perf_counter() - t0)
            setup_times.append(rescale(setup_raw[-1]))
        tracer = Tracer()
        passes, (first_results, first_fits) = _measure(
            wl, args.seconds, bool(args.trace), tracer, rescale
        )
        if any(isinstance(r, BaseException) for r in first_results):
            quality = dict.fromkeys(("class_rate", "nll_per_traj", "bic_hit_rate", "err_shape"), 0.0)
        else:
            quality = wl.quality(first_results, first_fits)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["ops"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    n_plain = sum(p["kind"] == "plain" for p in passes)
    traced = [p for p in passes if p["kind"] == "traced"]
    summary = {
        "setup_s": import_s + _median(setup_times),
        "wall_s": _pass_seconds(passes, "plain"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "class_rate": quality["class_rate"],
        "nll_per_traj": quality["nll_per_traj"],
        "bic_hit_rate": quality["bic_hit_rate"],
        "err_shape": quality["err_shape"],
        "failed_frac": len(errors) / attempted,
        "setup_raw_s": import_raw + _median(setup_raw),
        "wall_raw_s": _pass_seconds(passes, "plain", "raw_seconds"),
    }
    layers = {}
    if traced:
        per_pass = [
            layer_metrics([s for s in tracer.spans if s["pass"] == p["index"]], p["ops"])
            for p in traced
        ]
        layers = {name: _median([m[name] for m in per_pass]) for name in per_pass[0]}
        layers["trace.overhead_s"] = (
            _pass_seconds(passes, "traced") - summary["wall_s"]
        ) / wl.ops_per_pass
        for key, name in QUALITY_LAYER.items():
            layers[name] = quality[key] or 0.0
    if args.trace:
        units = {**LAYER_METRICS, **{name: "frac" for name in QUALITY_LAYER.values()}}
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END.items()}

    units = {
        **END_TO_END,
        "bic_hit_rate": "frac",
        "err_shape": "frac",
        "failed_frac": "frac",
        "setup_raw_s": "s",
        "wall_raw_s": "s",
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {n_plain} untraced + {len(traced)} traced + 1 warm-up")
    for name, unit in units.items():
        value = summary[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<14} {shown:>14} {unit}")
    print(f"  attempted {attempted}  failed {len(errors)}")
    for message in sorted(set(errors)):
        print(f"  FAILED: {message}")
    for name in layers:
        print(f"  {name:<32} {layers[name]:.6g}")
    env = _environment()
    print("env " + json.dumps(env))

    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer.write(stem.with_suffix(".spans.jsonl"))
    record = {
        "args": vars(args),
        "env": env,
        "summary": summary,
        "layers": layers,
        "setup_times": setup_times,
        "setup_raw": setup_raw,
        "import_s": import_s,
        "import_raw": import_raw,
        "passes": passes,
        "calibration_log": rescale.log,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
