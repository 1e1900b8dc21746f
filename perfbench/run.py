"""polycontact benchmark: `represent -o FILE` then `verify FILE --json`, per operation.

    python3 perfbench/run.py --workload {lift,certify,float} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from `src/`.  One
process drives `polycontact.cli.main` in a closed loop with one caller:
each call starts when the previous one has returned.  A pass runs every
operation of the workload once, and passes repeat until `--seconds` have
gone by (at least MIN_PASSES).  `represent_s` and `verify_s` sum, over the
operations of a pass, each operation's median time over the passes.
Times are in calibrated seconds: each call's wall time is rescaled by the
speed of a fixed reference computation timed right before and after it
(see calibrate.py).  Every operation is checked: exit codes follow the
README, and `verify --json` must report `pass` with one contact per edge
(graph) or per vertex (hypergraph).

`--trace 1` alternates untraced and traced passes and reports per-layer
metrics from the traced ones (see spans.py).  Human-readable lines come
first; the last line of stdout is the JSON result.  Per-operation details
(scene sha256, pair-kind counts, every pass's times) go to
perfbench/results/, spans of traced passes next to them.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from calibrate import REF_NOMINAL_S, Clock, reference  # noqa: E402
from spans import CLI_SPAN, EXACT_COUNTS, Tracer, layer_metrics  # noqa: E402
from workloads import KNOWN_DEFECTS, SCALES, WORKLOADS, build  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, ".work")

SETUP_SAMPLES = 7  # this process plus six fresh child processes
MIN_PASSES = {0: 3, 1: 4}  # trace 1 needs two untraced and two traced passes
ARRANGEMENT_CLASSES = ("complete", "mindeg3")
PHASES = ("represent", "verify")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=SCALES, default="full",
                    help="tiny: small sizes, for the benchmark's self-test")
    ap.add_argument("--probe-setup", action="store_true",
                    help="measure set-up only, as a fresh process (internal)")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Set-up: import the program, generate the inputs
# ---------------------------------------------------------------------------


def import_program() -> float:
    """Import polycontact from this checkout's src/; returns the seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "polycontact", "__init__.py")):
        raise SystemExit(f"run.py: no polycontact sources under {SRC}")
    sys.path.insert(0, SRC)
    t = time.perf_counter()
    import polycontact.cli
    dt = time.perf_counter() - t
    if not os.path.abspath(polycontact.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"run.py: imported polycontact from {polycontact.__file__}")
    return dt


def write_inputs(ops, directory):
    """Write each operation's input file; returns the sha256 over all of them."""
    os.makedirs(directory, exist_ok=True)
    digest = hashlib.sha256()
    for op in ops:
        if op.input_name is None:
            continue
        data = op.input_text.encode()
        with open(os.path.join(directory, op.input_name), "wb") as fh:
            fh.write(data)
        digest.update(op.input_name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


def set_up(args, directory):
    """Import and generate inputs; times are calibrated by a reference run after."""
    import_s = import_program()
    t = time.perf_counter()
    ops = build(args.workload, args.seed, args.scale)
    inputs_sha = write_inputs(ops, directory)
    now = time.perf_counter()
    ref = reference()
    factor = REF_NOMINAL_S / ref
    return ops, {"setup_s": (now - T0) * factor, "import_s": import_s * factor,
                 "inputs_s": (now - t) * factor, "setup_wall_s": now - T0,
                 "reference_s": ref, "inputs_sha256": inputs_sha,
                 "networkx_loaded": int("networkx" in sys.modules)}


def probe_setup(args):
    """Child-process mode: set up once and print the timings as JSON."""
    directory = os.path.join(WORK, f"probe-{os.getpid()}")
    try:
        _, sample = set_up(args, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps(sample))


def setup_samples(args, first):
    """Set-up timings of this process and of SETUP_SAMPLES - 1 fresh ones."""
    samples = [first]
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", args.scale]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"run.py: set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

_KINDS = re.compile(r"^pair kinds: (.*)$", re.M)


def run_cli(argv, tracer=None):
    """One `polycontact` invocation in this process: (exit code, wall seconds, output)."""
    from polycontact.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        t = time.perf_counter()
        rc = tracer.call(CLI_SPAN, main, argv) if tracer else main(argv)
        dt = time.perf_counter() - t
    return rc, dt, out.getvalue()


def _pair_kinds(text):
    m = _KINDS.search(text)
    if not m or m.group(1) == "none":
        return {}
    return {k: int(v) for k, v in (kv.split("=") for kv in m.group(1).split(", "))}


def _max_coord_bits(data):
    bits = 0
    for p in json.loads(data)["points"]:
        for c in (p["x"], p["y"], p["z"]):
            for part in c.split("/"):
                bits = max(bits, int(part).bit_length())
    return bits


def run_op(op, index, inputs_dir, scenes_dir, clock, tracer=None):
    """represent -o FILE, then verify FILE --json; returns the op's record.

    `<phase>_s` is a call's wall time and `<phase>_scale` its calibration
    factor from `clock`; a traced call's spans carry the op id (index, phase).
    """
    out = os.path.join(scenes_dir, op.name + ".scene.json")
    if os.path.exists(out):
        os.remove(out)
    argv = ["represent", *op.args]
    if op.input_name:
        argv += ["--input", os.path.join(inputs_dir, op.input_name)]
    if tracer:
        tracer.op = (index, "represent")
    rc, rep_s, text = run_cli(argv + ["-o", out], tracer)
    rec = {"op": op.name, "represent_s": rep_s, "represent_scale": clock.scale(),
           "represent_exit": rc, "problem": None}
    if rc != 0:
        rec["problem"] = f"represent exit {rc}"
        return rec
    with open(out, "rb") as fh:
        data = fh.read()
    rec.update(sha256=hashlib.sha256(data).hexdigest(), bytes=len(data),
               pair_kinds=_pair_kinds(text))
    if op.args[1] in ARRANGEMENT_CLASSES:
        rec["max_coord_bits"] = _max_coord_bits(data)
    if tracer:
        tracer.op = (index, "verify")
    rc, ver_s, text = run_cli(["verify", out, "--json"], tracer)
    rec.update(verify_s=ver_s, verify_scale=clock.scale(), verify_exit=rc)
    try:
        doc = json.loads(text)
    except ValueError:
        rec["problem"] = f"verify exit {rc}, output is not JSON"
        return rec
    if rc != 0 or doc.get("pass") is not True or doc.get("violations"):
        rec["problem"] = (f"verify exit {rc}, pass={doc.get('pass')}, "
                          f"{len(doc.get('violations', []))} violations")
    elif doc.get("contacts") != op.expect_contacts:
        rec["problem"] = (f"{doc.get('contacts')} contacts, expected "
                          f"{op.expect_contacts}")
    return rec


def check_known_defect(defect, inputs_dir, scenes_dir):
    """Run a recorded README-contract breach once and report where it stands."""
    rec = run_op(defect.op, 0, inputs_dir, scenes_dir, Clock())
    rc = rec["represent_exit"]
    if rc == 3:
        status = "fixed: rejected with exit 3"
    elif rc == 0 and rec["problem"] is None:
        status = "fixed: builds a scene that verifies"
    elif rc == 0:
        status = f"wrong: represent certified an invalid scene ({rec['problem']})"
    else:
        status = f"open: represent exit {rc}"
    return {"op": defect.op.name, "expected": defect.expected,
            "reference": defect.reference, "status": status}


# ---------------------------------------------------------------------------
# Passes and metrics
# ---------------------------------------------------------------------------


def run_passes(args, ops, inputs_dir, scenes_dir):
    """Closed loop over passes; returns a list of (tracer or None, [op records])."""
    passes = []
    first_sha = {}
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or len(passes) < MIN_PASSES[args.trace]):
        tracer = Tracer() if args.trace and len(passes) % 2 == 1 else None
        clock = Clock()
        if tracer:
            tracer.install()
        try:
            recs = [run_op(op, i, inputs_dir, scenes_dir, clock, tracer)
                    for i, op in enumerate(ops)]
        finally:
            if tracer:
                tracer.uninstall()
        for rec in recs:
            sha = rec.get("sha256")
            if sha and first_sha.setdefault(rec["op"], sha) != sha and not rec["problem"]:
                rec["problem"] = "scene differs from the first pass"
        passes.append((tracer, recs))
    return passes


def _calibrated(rec, phase):
    return rec.get(f"{phase}_s", 0.0) * rec.get(f"{phase}_scale", 0.0)


def op_medians(passes, phase):
    """Sum over operations of each operation's median calibrated time."""
    per_op = zip(*(recs for _, recs in passes))
    return sum(statistics.median(_calibrated(r, phase) for r in recs)
               for recs in per_op)


def end_to_end(passes, setups):
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "represent_s": (op_medians(passes, "represent"), "s"),
        "verify_s": (op_medians(passes, "verify"), "s"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
    }


def per_layer(passes, setups):
    """Per-layer metrics: medians over traced passes, setup and tracing overhead.

    Returns (metrics, per-pass metrics, whether the exact counts repeated).
    """
    traced = [(t, recs) for t, recs in passes if t is not None]
    per_pass = []
    for tracer, recs in traced:
        scales = {(i, phase): r.get(f"{phase}_scale", 0.0)
                  for i, r in enumerate(recs) for phase in PHASES}
        m = layer_metrics(tracer.spans, scales)
        m["sceneio.bytes_written"] = sum(r.get("bytes", 0) for r in recs)
        per_pass.append(m)
    out = {}
    for name in per_pass[0]:
        unit = _unit(name)
        values = [m[name] for m in per_pass]
        out[name] = (float(statistics.median(values)) if unit == "s"
                     else statistics.median_low(values), unit)
    bits = [r.get("max_coord_bits", 0) for _, recs in traced for r in recs]
    out["arrangement.max_coord_bits"] = (max(bits), "bits")
    out["setup.import_s"] = (statistics.median(s["import_s"] for s in setups), "s")
    out["setup.inputs_s"] = (statistics.median(s["inputs_s"] for s in setups), "s")
    out["setup.networkx_loaded"] = (setups[0]["networkx_loaded"], "bool")
    untraced = [p for p in passes if p[0] is None]
    overhead = op_medians(traced, "represent") - op_medians(untraced, "represent")
    out["trace.represent_overhead_s"] = (overhead, "s")
    repeat = all(m[k] == per_pass[0][k] for m in per_pass for k in EXACT_COUNTS)
    return out, per_pass, repeat


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "1"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    if args.probe_setup:
        probe_setup(args)
        return 0
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    inputs_dir = os.path.join(work, "inputs")
    scenes_dir = os.path.join(work, "scenes")
    try:
        ops, first = set_up(args, inputs_dir)
        os.makedirs(scenes_dir)
        setups = setup_samples(args, first)
        passes = run_passes(args, ops, inputs_dir, scenes_dir)
        defects = [check_known_defect(d, inputs_dir, scenes_dir)
                   for d in KNOWN_DEFECTS.get(args.workload, [])
                   if args.scale == "full"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    recs = [r for _, rs in passes for r in rs]
    failed = sum(r["problem"] is not None for r in recs)
    same_inputs = len({s["inputs_sha256"] for s in setups}) == 1
    correct = (failed == 0 and same_inputs
               and not any(d["status"].startswith("wrong") for d in defects))

    metrics = end_to_end(passes, setups)
    report = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "seconds": args.seconds,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "passes": len(passes), "ops_per_pass": len(ops),
        "attempted": len(recs), "failed": failed, "correct": correct,
        "inputs_sha256": first["inputs_sha256"], "inputs_repeat": same_inputs,
        "setup_samples": setups,
        "ops": [{"op": r["op"], "args": list(op.args),
                 "expect_contacts": op.expect_contacts,
                 **{k: r.get(k) for k in ("sha256", "bytes", "pair_kinds",
                                          "max_coord_bits")}}
                for op, r in zip(ops, passes[0][1])],
        "problems": sorted({f"{r['op']}: {r['problem']}" for r in recs if r["problem"]}),
        "known_defects": defects,
        "end_to_end": {k: v for k, (v, _) in metrics.items()},
        "passes_detail": [{"traced": t is not None, "ops": rs} for t, rs in passes],
    }
    layers = None
    if args.trace:
        layers, per_pass, repeat = per_layer(passes, setups)
        correct = report["correct"] = correct and repeat
        report.update(per_layer={k: v for k, (v, _) in layers.items()},
                      per_layer_passes=per_pass, exact_counts_repeat=repeat)
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1)
    if args.trace:
        with open(stem + ".spans.json", "w") as fh:
            json.dump({"ops": [op.name for op in ops],
                       "fields": ["name", "start", "end", "parent", "op", "tag"],
                       "passes": [t.spans for t, _ in passes if t is not None]}, fh)

    print(f"polycontact benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(passes)} ops/pass={len(ops)}")
    shown = dict(metrics)
    shown["failed_ratio"] = (failed / len(recs), "1")
    shown.update(layers or {})
    for name, (value, unit) in shown.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    for p in report["problems"]:
        print(f"  FAILED {p}")
    for d in defects:
        print(f"  known defect {d['op']}: {d['status']} (expected {d['expected']}; "
              f"{d['reference']})")
    print(f"  details: {os.path.relpath(stem, ROOT)}.json")
    chosen = layers if args.trace else metrics
    print(json.dumps({"correct": correct, "attempted": len(recs), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in chosen.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
