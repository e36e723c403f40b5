"""Run one benchmark workload against the cutchains sources beside this directory.

    python3 cutbench/run.py --workload sequence --seed 1 --seconds 20 --trace 0

A run repeats whole rounds until --seconds have passed.  A round calls every
operation of the workload once in-process, runs each of its CLI commands once
in a subprocess, and takes one set-up sample in a fresh interpreter.  Every
output is checked: the first against the reference computations, every later
one for equality with the first.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1).  A fuller record, and with --trace 1 the spans, are written under
cutbench/results/.  See cutbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"

sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckError, Workload, build  # noqa: E402

SETUP_SCRIPT = """\
import json, time
t0 = time.perf_counter()
import cutchains, cutchains.cli
t1 = time.perf_counter()
{first_calls}
cutchains.cli.build_parser()
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t0]))
"""

# Calls the program makes internally, timed under their layer in a traced run:
# (module, attribute, span name, counter).
INNER_CALLS = (
    ("counting", "chain_count", "counting.nested", "counting.calls"),
    ("counting", "chain_counts_by_k", "counting.nested", "counting.calls"),
    ("counting", "chain_count_rooted", "counting.rooted", "counting.calls"),
    ("counting", "chain_count_ie", "counting.ie", "counting.calls"),
    ("enumeration", "chain_count_ie", "counting.ie", "counting.calls"),  # job pre-sizing
    ("cuts", "signature", "cuts.signature", None),
    ("cuts", "canonical_representative", "cuts.representative", None),
    ("cuts", "equivalent_direct", "cuts.recheck", None),
)

LAYER_TIMES = (
    "counting.nested", "counting.rooted", "counting.ie",
    "enumeration.count", "enumeration.group", "enumeration.lines", "enumeration.hasse",
    "matrices.parse",
    "cuts.signature", "cuts.representative", "cuts.recheck", "cuts.classify", "cuts.serialize",
)
LAYER_COUNTS = (
    "counting.calls", "enumeration.chains", "enumeration.refused", "matrices.values", "cuts.classes",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("CUTCHAINS_CHAIN_CEILING", None)
    return env


# Starts the CLI and reports its wall time and peak RSS.  Linux carries the
# forking process's peak RSS over into the child's, so the CLI is started from
# this small interpreter rather than from the benchmark process itself.
LAUNCHER = """\
import json, os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
seconds = time.perf_counter() - start
print(json.dumps([seconds, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)]))
"""


def run_cli(args: list[str], output: Path, env: dict) -> tuple[float, float, int, str]:
    """Wall seconds, peak RSS in MiB, exit code and stderr of one CLI subprocess."""
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, "-m", "cutchains", *args, "--output", str(output)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    if proc.returncode:
        return 0.0, 0.0, proc.returncode, proc.stderr
    seconds, rss, code = json.loads(proc.stdout)
    return seconds, rss, code, proc.stderr


def setup_sample(first_calls: str, env: dict) -> tuple[float, float]:
    """(import seconds, import plus first-call seconds) in a fresh interpreter."""
    script = SETUP_SCRIPT.format(first_calls=first_calls)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=ROOT, timeout=60,
    )
    if proc.returncode:
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()}")
    import_s, setup_s = json.loads(proc.stdout.splitlines()[-1])
    return import_s, setup_s


# A fixed piece of interpreter work of the kinds the program does (big-integer
# products and powers, dict updates, sorting Fractions, building strings),
# timed after every operation.  The machine's speed drifts by up to 2x over
# seconds and minutes; dividing each operation's time by the calibration
# times around it removes most of that drift.
CALIBRATION_FRACTIONS = [Fraction(i * 7919 % 1009, 1009) for i in range(1, 400)]
# Normalised times are seconds at the speed where the calibration takes 5 ms,
# about its median on the reference machine (2 shared x86-64 cores, Python 3.11).
REFERENCE_S = 0.005


def calibrate() -> float:
    start = time.perf_counter()
    big = 3**300
    total = 0
    seen = {}
    for i in range(4000):
        total += big * i >> 400
        seen[i & 511] = total
    for base in range(2, 300):
        total ^= base**300
    sorted(CALIBRATION_FRACTIONS)
    " < ".join(format(i, "016b") for i in range(2000))
    return time.perf_counter() - start


class Run:
    def __init__(self, workload: Workload, tracer: Tracer | None, cc) -> None:
        self.workload = workload
        self.tracer = tracer
        self.cc = cc
        self.env = child_env()
        # name -> (raw seconds, normalised seconds) per sample
        self.samples: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.cli_rss: dict[str, list[float]] = defaultdict(list)
        self.tallies: dict[str, dict[str, int]] = {}
        self.round_calibration: list[list[float]] = []
        self.first: dict[str, object] = {}
        self.refusals: dict[str, str] = {}
        self.errors: list[str] = []
        self.attempted = self.failed = self.rounds = 0
        self.correct = True
        self.calibration = calibrate()

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def muted(self):
        return self.tracer.muted() if self.tracer else nullcontext()

    def count(self, name: str, amount: int = 1) -> None:
        if self.tracer:
            self.tracer.count(name, amount)

    def record(self, samples: dict[str, float]) -> None:
        """Keep samples taken together, normalised by the calibrations before and after them."""
        after = calibrate()
        self.round_calibration[-1].append(after)
        scale = REFERENCE_S / ((self.calibration + after) / 2)
        self.calibration = after
        for name, seconds in samples.items():
            self.samples[name].append((seconds, seconds * scale))

    def verify(self, name: str, result, check) -> None:
        try:
            if name not in self.first:
                check(result)
                self.first[name] = result
            elif result != self.first[name]:
                raise CheckError("output differs from the first round's")
        except Exception as exc:  # a check that cannot read the output fails it too
            self.fail_check(f"{name}: {type(exc).__name__}: {exc}")

    def fail_check(self, message: str) -> None:
        self.correct = False
        if len(self.errors) < 20:
            self.errors.append(message)

    def op_failed(self, name: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{name} raised:\n{traceback.format_exc()}")

    def run_op(self, op) -> None:
        self.attempted += 1
        gc.collect()
        with self.muted() if op.probe else self.span(op.span):
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:
                if op.refusal is None or not isinstance(exc, op.refusal):
                    self.op_failed(op.name)
                    return
                self.failed += 1
                self.count("enumeration.refused")
                message = f"{type(exc).__name__}: {exc}"
                if self.refusals.setdefault(op.name, message) != message:
                    self.fail_check(f"{op.name} was refused differently: {message}")
                return
            seconds = time.perf_counter() - start
        self.record({op.name: seconds})
        self.verify(op.name, result, op.check)
        tally = op.tally(result)
        self.tallies[op.name] = tally
        if not op.probe:
            for counter, amount in tally.items():
                self.count(counter, amount)

    def run_cli(self, command) -> None:
        self.attempted += 1
        output = WORK / f"cli-{command.name}.out"
        output.unlink(missing_ok=True)
        seconds, rss, code, err = run_cli(command.args, output, self.env)
        if code != 0:
            self.failed += 1
            self.errors.append(f"cli {command.name} exited {code}: {err.strip()[:2000]}")
            return
        self.record({"cli " + command.name: seconds})
        self.cli_rss[command.name].append(rss)
        text = output.read_text(encoding="utf-8")
        self.verify("cli " + command.name, text, command.check)
        if self.tracer:
            # The same command in-process: cli_s minus this is interpreter start-up and import.
            inproc = WORK / f"main-{command.name}.out"
            with self.span("cli.main"), self.tracer.muted():
                start = time.perf_counter()
                code = self.cc.cli.main([*command.args, "--output", str(inproc)])
                seconds = time.perf_counter() - start
            self.record({"main " + command.name: seconds})
            if code != 0 or inproc.read_text(encoding="utf-8") != text:
                self.fail_check(f"cli.main {command.name} differs from the subprocess")

    def run_setup(self) -> None:
        self.attempted += 1
        try:
            import_s, setup_s = setup_sample(self.workload.first_calls, self.env)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError):
            self.op_failed("set-up sample")
            return
        self.record({"setup": setup_s, "import": import_s})

    def run(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while self.rounds == 0 or time.perf_counter() < deadline:
            if self.tracer:
                self.tracer.round = self.rounds
            self.round_calibration.append([])
            for op in self.workload.ops:
                self.run_op(op)
            for command in self.workload.cli:
                self.run_cli(command)
            self.run_setup()
            self.rounds += 1

    # ------------------------------------------------------------ statistics

    def typical(self, name: str) -> float:
        """Median normalised seconds of one operation or command over the run."""
        samples = self.samples.get(name)
        return statistics.median(n for _, n in samples) if samples else float("nan")

    def pass_s(self) -> float:
        """One pass over the workload's own operations."""
        return sum(self.typical(op.name) for op in self.workload.ops if not op.probe and op.name in self.samples)

    def rate(self, counter: str) -> float:
        """Work per normalised second of the operations that produce it."""
        work = seconds = 0.0
        for op in self.workload.ops:
            amount = self.tallies.get(op.name, {}).get(counter)
            if amount:
                work += amount
                seconds += self.typical(op.name)
        return work / seconds if seconds else float("nan")

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        return {
            "setup_s": (self.typical("setup"), "s"),
            "pass_s": (self.pass_s(), "s"),
            "chains_per_s": (self.rate("enumeration.chains"), "1/s"),
            "matrices_per_s": (self.rate("cuts.matrices"), "1/s"),
            "cli_s": (sum(self.typical("cli " + c.name) for c in self.workload.cli), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "cli_peak_rss_mib": (statistics.median(map(max, zip(*self.cli_rss.values()))), "MiB"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        self_times = self.tracer.self_times()
        scale = [REFERENCE_S / statistics.mean(cals) for cals in self.round_calibration]
        metrics = {}
        for layer in LAYER_TIMES:
            per_round = [self_times.get((layer, r), 0.0) * scale[r] for r in range(self.rounds)]
            metrics[layer + "_s"] = (statistics.median(per_round), "s")
        for counter in LAYER_COUNTS:
            metrics[counter] = (self.tracer.counts.get((counter, 0), 0), "count")
        metrics["cli.import_s"] = (self.typical("import"), "s")
        metrics["cli.main_s"] = (sum(self.typical("main " + c.name) for c in self.workload.cli), "s")
        metrics["trace.pass_s"] = (self.pass_s(), "s")
        return metrics


def load_program():
    if not (SRC / "cutchains" / "__init__.py").is_file():
        sys.exit(f"error: no cutchains sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import cutchains
    import cutchains.cli  # noqa: F401

    return cutchains


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cc = load_program()
    WORK.mkdir(parents=True, exist_ok=True)
    os.environ.pop("CUTCHAINS_CHAIN_CEILING", None)
    workload = build(args.workload, cc, args.seed, WORK)
    # Writes the bytecode cache and warms the file cache before the clock starts.
    setup_sample(workload.first_calls, child_env())
    tracer = Tracer() if args.trace else None
    if tracer:
        for module, attr, span, counter in INNER_CALLS:
            tracer.wrap(getattr(cc, module), attr, span, counter)
    run = Run(workload, tracer, cc)
    try:
        run.run(args.seconds)
    finally:
        if tracer:
            tracer.uninstall()

    metrics = run.per_layer() if tracer else run.end_to_end()
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": run.rounds,
        "notes": workload.notes,
        "refusals": run.refusals,
        "errors": run.errors,
        "samples": {name: [list(pair) for pair in pairs] for name, pairs in run.samples.items()},
        "calibration": run.round_calibration,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if tracer:
        tracer.write(RESULTS / f"{stem}.spans.jsonl")
    for error in run.errors:
        print(error, file=sys.stderr)
    unmeasured = [name for name, (value, _) in metrics.items() if math.isnan(value)]
    if unmeasured:
        print(f"error: no successful samples for {', '.join(unmeasured)}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
