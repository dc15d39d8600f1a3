#!/usr/bin/env python3
"""qfcring benchmark: closed-loop workloads over the public API.

    python3 perfbench/run.py --workload {explore,recalibrate,oracle} \\
        --seed N --seconds S --trace {0,1}

Every run first runs the seven experiments on the packaged config and
compares the outputs byte for byte with tests/golden/default_run (the gate,
which also warms the caches), then times `setup_s` in fresh interpreters.

--trace 0 runs ops one after another until their latencies add up to S
seconds, checks each op's output untimed, and reports the end-to-end
metrics.  Times are reported at a reference machine speed (see SpeedProbe).
--trace 1 replays the first block of ops alternately untraced and traced
(see tracer.py) for about S seconds, and reports per-layer metrics per
traced op plus the tracing overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A record of the run, with
every op's latency, error and output digest, goes to perfbench/results/.

The script finds src/ from its own path, so it runs from any directory.
It exits with code 2, printing no result, when src/ or the goldens are
missing or QFCRING_THREADS is set.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "default_run"
RESULTS = HERE / "results"

SETUP_RUNS = 5       # fresh interpreters per run; setup_s is their median
WALL_CAP = 1.4       # a run stops after this many times --seconds of wall time
DIGEST_OPS = 6       # the run digest covers the gate and this many first ops
FIT_PROBES = 5       # traced dispersion fits; dispersion.fit_s is their median
# Time of SpeedProbe.measure() on the reference machine (2-core Xeon sandbox)
# when nothing else loads its cores; times are reported at this speed.
PROBE_REF_S = 1.4e-3

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "setup_s": "s",
}

# name -> (unit, better); values are per traced op unless the unit says otherwise.
PER_LAYER = {
    "dispersion.fit_s": ("s", "lower"),
    "dispersion.eval_calls": ("count/op", "lower"),
    "dispersion.eval_points": ("count/op", "lower"),
    "dispersion.points_per_call": ("count/call", "higher"),
    "dispersion.eval_self_s": ("s/op", "lower"),
    "elements.resonance_solves": ("count/op", "lower"),
    "elements.resonance_roots": ("count/op", "lower"),
    "elements.resonance_self_s": ("s/op", "lower"),
    "elements.mzi_calls": ("count/op", "lower"),
    "elements.mzi_self_s": ("s/op", "lower"),
    "elements.spectrum_self_s": ("s/op", "lower"),
    "matching.sweeps": ("count/op", "lower"),
    "matching.grid_points": ("count/op", "lower"),
    "matching.sweep_self_s": ("s/op", "lower"),
    "matching.repeat_sweep_ratio": ("ratio", "lower"),
    "matching.matches_per_sweep": ("count/sweep", "higher"),
    "matching.verify_calls": ("count/op", "lower"),
    "matching.verify_self_s": ("s/op", "lower"),
    "conversion.rk4_steps": ("count/op", "lower"),
    "conversion.rk4_calls_per_point": ("count/point", "lower"),
    "conversion.rk4_self_s": ("s/op", "lower"),
    "conversion.rk4_steps_per_s": ("1/s", "higher"),
    "conversion.closed_form_calls": ("count/op", "lower"),
    "conversion.closed_form_self_s": ("s/op", "lower"),
    "noise.calls": ("count/op", "lower"),
    "noise.self_s": ("s/op", "lower"),
    "builders.calls": ("count/op", "lower"),
    "builders.self_s": ("s/op", "lower"),
    "config.calls": ("count/op", "lower"),
    "config.self_s": ("s/op", "lower"),
    "calibration.width_solves": ("count/op", "lower"),
    "calibration.width_solve_self_s": ("s/op", "lower"),
    "calibration.sweeps": ("count/op", "lower"),
    "calibration.self_s": ("s/op", "lower"),
    "experiments.self_s": ("s/op", "lower"),
    "experiments.files_written": ("count/op", "lower"),
    "experiments.bytes_written": ("B/op", "lower"),
    "setup.import_s": ("s", "lower"),
    "setup.config_s": ("s", "lower"),
    "setup.fit_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

# Spawned for setup_s: a fresh interpreter importing the CLI, loading the
# packaged config and building the default dispersion model.
SETUP_CODE = """
import json, time
t0 = time.perf_counter()
import qfcring.cli
t1 = time.perf_counter()
from qfcring.config import load_config
cfg = load_config(None)
t2 = time.perf_counter()
from qfcring.builders import build_dispersion_model
build_dispersion_model(cfg)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1, "fit_s": t3 - t2}))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("explore", "recalibrate", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def golden_gate(work):
    """Run the seven experiments on the packaged config; compare with the goldens."""
    from qfcring.config import default_config
    from qfcring.experiments import EXPERIMENTS, run_experiment

    out = os.path.join(work, "gate")
    try:
        cfg = default_config()
        for name in EXPERIMENTS:
            run_experiment(name, cfg, out)
    except Exception as exc:  # a broken program fails the gate, not the run
        return {"ok": False, "differs": [], "error": f"{type(exc).__name__}: {exc}"}
    produced, expected = sorted(os.listdir(out)), sorted(os.listdir(GOLDEN))
    differs = [n for n in expected
               if n not in produced or not filecmp.cmp(os.path.join(out, n), GOLDEN / n,
                                                        shallow=False)]
    differs += [n for n in produced if n not in expected]
    h = hashlib.sha256()
    for name in produced:
        h.update(name.encode())
        h.update(Path(out, name).read_bytes())
    return {"ok": not differs, "files": len(expected), "differs": differs,
            "digest": h.hexdigest()}


def measure_setup(probe):
    """Fresh interpreters doing the CLI's set-up: wall times, the same at
    reference speed, and the median inner split (also at reference speed)."""
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    walls, scaled, inner = [], [], []
    for _ in range(SETUP_RUNS):
        before = probe.measure()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        wall = time.perf_counter() - t0
        scale = probe.scale(before, probe.measure())
        walls.append(wall)
        scaled.append(wall * scale)
        inner.append({k: v * scale for k, v in json.loads(proc.stdout.splitlines()[-1]).items()})
    return {"walls_s": walls, "setup_s": scaled,
            **{k: statistics.median(r[k] for r in inner) for k in inner[0]}}


class SpeedProbe:
    """Times a fixed kernel that does not touch qfcring: a Python loop and a
    numpy pass, best of two runs of about 1.5 ms each.

    On a shared machine the speed of a core drifts by tens of percent over
    seconds.  The kernel slows with it, so `scale(before, after)` turns a wall
    time measured between two probes into seconds at the reference speed.
    """

    def __init__(self):
        import numpy

        self._data = numpy.linspace(0.0, 1.0, 200_000)

    def measure(self):
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            acc = 0
            for i in range(20_000):
                acc += i * i % 7
            acc += float(self._data.sum())
            best = min(best, time.perf_counter() - t0)
        return best

    @staticmethod
    def scale(before, after):
        return PROBE_REF_S / (0.5 * (before + after))


def execute(wl, ctx, ops, probe, seconds=None, tracer=None, op_base=0):
    """Run ops one after another until their latencies add up to `seconds`.

    Only the op's call into qfcring is timed, between two speed probes;
    `latency_s` is its wall time at reference speed, so a run does the same
    ops however loaded the machine is, unless the wall time passes
    WALL_CAP times `seconds`.  The check runs afterwards, with the tracer's
    op id cleared so check spans never count as op work.
    """
    records = []
    t_start = time.perf_counter()
    timed = 0.0
    for i, op in enumerate(ops):
        if seconds is not None and records and (
                timed >= seconds or time.perf_counter() - t_start >= WALL_CAP * seconds):
            break
        error = digest = None
        if tracer is not None:
            tracer.begin_op(op_base + i)
        before = probe.measure()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                result = wl.run(op, ctx)
            except Exception as exc:  # a failing op is recorded, the loop goes on
                error = exc
            wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.op_id = -1
        scale = probe.scale(before, probe.measure())
        timed += wall * scale
        if error is None:
            try:
                digest = wl.check(op, result, ctx)
            except Exception as exc:
                error = exc
        records.append({
            "op": i, "latency_s": wall * scale, "wall_s": wall, "scale": scale,
            "digest": digest,
            "error": None if error is None else type(error).__name__,
            "message": None if error is None else str(error)[:300],
            "warnings": len(caught),
        })
    return records


def end_to_end(records, setup_times, key="latency_s"):
    lat = sorted(r[key] for r in records)
    n = len(lat)
    ok = sum(r["error"] is None for r in records)
    # The highest percentile with at least ten ops beyond it (the slowest op
    # when there are fewer than eleven).
    tail_index = n - 11 if n > 10 else n - 1
    metrics = {
        "ops_per_s": ok / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": lat[tail_index],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": ok / n,
        "setup_s": statistics.median(setup_times),
    }
    tail = {"percentile": 100.0 * (tail_index + 1) / n, "ops": n,
            "ops_beyond": n - 1 - tail_index}
    return metrics, tail


def traced_run(wl, ctx, block, seconds, tracer, probe):
    """Alternate untraced and traced passes over one block of ops."""
    import qfcring.dispersion

    tracer.install()
    tracer.op_id = -2
    for _ in range(FIT_PROBES):
        qfcring.dispersion.default_model()
    tracer.uninstall()

    records, untraced_s, traced_s, scales = [], 0.0, 0.0, {}
    digests = {}
    t_start = time.perf_counter()
    passes = 0
    while True:
        t_pair = time.perf_counter()
        plain = execute(wl, ctx, block, probe)
        tracer.install()
        try:
            traced = execute(wl, ctx, block, probe, tracer=tracer,
                             op_base=passes * len(block))
        finally:
            tracer.uninstall()
        scales.update((passes * len(block) + r["op"], r["scale"]) for r in traced)
        passes += 1
        for r in plain + traced:
            first = digests.setdefault(r["op"], r["digest"])
            if r["error"] is None and r["digest"] != first:
                r["error"], r["message"] = "DigestMismatch", "replayed op gave other output"
        records += plain + traced
        untraced_s += sum(r["latency_s"] for r in plain)
        traced_s += sum(r["latency_s"] for r in traced)
        now = time.perf_counter()
        if now - t_start + (now - t_pair) > seconds:
            break
    metrics, notes = tracer.layer_metrics(passes * len(block), fit_op=-2, scales=scales)
    metrics["trace.overhead"] = traced_s / untraced_s - 1.0
    return records, metrics, notes, passes


def run_digest(gate, records):
    h = hashlib.sha256((gate.get("digest") or "").encode())
    firsts = [r["digest"] or r["error"] for r in records[:DIGEST_OPS]]
    for d in firsts:
        h.update(str(d).encode())
    return h.hexdigest(), len(firsts)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qfcring" / "__init__.py").is_file() or not GOLDEN.is_dir():
        print(f"error: qfcring sources ({SRC}) or goldens ({GOLDEN}) not found",
              file=sys.stderr)
        return 2
    if "QFCRING_THREADS" in os.environ:
        print("error: QFCRING_THREADS is set; the benchmark measures the default "
              "single-threaded sweep", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    from qfcring.config import default_config
    from tracer import Tracer
    from workloads import WORKLOADS

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": git_commit(), "loadavg_start": os.getloadavg(),
    }
    RESULTS.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=RESULTS, prefix="work-")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        gate = golden_gate(work)
        probe = SpeedProbe()
        setup = measure_setup(probe)
        wl = WORKLOADS[args.workload]
        ctx = wl.prepare(default_config(), work)
        if args.trace:
            tracer = Tracer()
            block = wl.block(args.seed, 0, ctx)
            records, metrics, notes, passes = traced_run(wl, ctx, block, args.seconds,
                                                         tracer, probe)
            for key in ("import_s", "config_s", "fit_s"):
                metrics[f"setup.{key}"] = setup[key]
            tracer.save(RESULTS / f"{args.workload}-seed{args.seed}-spans.npz")
            units = {k: PER_LAYER[k][0] for k in PER_LAYER}
            extra = {"passes": passes, "block_ops": len(block), "notes": notes}
        else:
            stream = itertools.chain.from_iterable(
                wl.block(args.seed, b, ctx) for b in itertools.count())
            records = execute(wl, ctx, stream, probe, seconds=args.seconds)
            metrics, tail = end_to_end(records, setup["setup_s"])
            units = END_TO_END
            extra = {"tail": tail,
                     "wall_metrics": end_to_end(records, setup["walls_s"], "wall_s")[0]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(r["error"] is not None for r in records)
    digest, digest_ops = run_digest(gate, records)
    record.update(loadavg_end=os.getloadavg(), gate=gate, setup=setup, digest=digest,
                  digest_ops=digest_ops, metrics=metrics, ops=records, **extra)
    with open(RESULTS / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"qfcring benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: {record['nproc']} x {record['cpu_model']}; python {record['python']}, "
          f"numpy {record['numpy']}; commit {record['git_commit']}; load "
          f"{record['loadavg_start'][0]:.2f} -> {record['loadavg_end'][0]:.2f}")
    if gate["ok"]:
        print(f"gate: {gate['files']} files byte-identical to tests/golden/default_run")
    else:
        print(f"gate FAILED: differs {gate['differs']} {gate.get('error', '')}")
    errors = sorted({r["error"] for r in records if r["error"]})
    print(f"ops: {len(records)} attempted, {failed} failed {errors or ''}; "
          f"digest {digest[:16]} over gate + {digest_ops} ops")
    if args.trace:
        print(f"traced: {extra['passes']} pass pairs over {extra['block_ops']} ops")
    else:
        print(f"op_tail_s is p{extra['tail']['percentile']:.1f} of {extra['tail']['ops']} ops "
              f"({extra['tail']['ops_beyond']} beyond)")
    for key, value in metrics.items():
        note = extra.get("notes", {}).get(key, "") if args.trace else ""
        print(f"  {key:34s} {value:14.6g} {units[key]:12s} {note}")
    print(f"record: {Path(RESULTS, tag + '.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": gate["ok"] and failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
