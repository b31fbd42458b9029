"""Whole-farm benchmark: one workload, one process, one thread.

Usage (from the repository root)::

    python3 farmbench/run.py --workload stream --seed 11 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` prints the
per-layer metrics of a traced run instead.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the full run record (raw host times,
calibration readings, the per-boundary span table) is written to
``farmbench/results/``.  The exit code is 0 only when every output
digest checks out.  See farmbench/README.md for the workloads and the
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

# Output digest of each workload at its default seed (see README.md,
# "Correctness").  Re-pin only when the farm's output is meant to change.
PINNED = {
    "stream":
        "6d2b100e47add6d7da32c6f9efbba5b9c62b1080da987f042204500ff05139d3",
    "gateway_load":
        "a822915560e108abdddbd2892d7d988cfed67b116eb9501258b223978b5fdfdc",
    "botfarm":
        "059c463fbb0ded466493b4278585747dc148d575c8dc6c1a84a207fb15abc099",
}

# Set-up takes milliseconds, so besides the set-up of every timed run
# the benchmark builds the workload SETUP_BATCHES x SETUP_PER_BATCH more
# times (stopping at the first Farm.run) and reports the median.
SETUP_BATCHES = 16
SETUP_PER_BATCH = 8

# Slices of virtual time per run, each bracketed by calibration
# readings of CAL_SAMPLES kernel calls (see Rep).
CHUNKS = 128
CAL_SAMPLES = 1

# Timed runs per measurement, at least; more while --seconds last.
MIN_REPS = 2

END_TO_END_UNITS = {"vsec_per_s": "vs/s", "relayed_pps": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB",
                    "completed_frac": "share"}


class SetupDone(Exception):
    """Raised at the first Farm.run of a set-up-only pass."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("stream", "gateway_load", "botfarm"))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the experiment's own)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="host seconds of timed runs to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Rep:
    """One workload run, timed from outside.

    The host time is cut into segments: set-up (workload start to the
    first ``Farm.run``), then the run in :data:`CHUNKS` slices of
    virtual time, the last slice running on until the workload returns.
    The calibration kernel is read at every cut, so each segment is
    bracketed by a reading just before and just after it, and is scaled
    to the reference speed by their mean.  In a traced run
    (``ledger``) the readings between slices are left out of the root
    span.
    """

    def __init__(self, workloads, cal, name: str, seed: int,
                 ledger=None, chunks: int = CHUNKS) -> None:
        gc.collect()
        marks = []

        def mark():
            ended = perf_counter()
            reading = cal.reading(CAL_SAMPLES)
            marks.append((ended, reading, perf_counter()))

        if ledger:
            def first_run():
                ledger.hidden(mark)
                ledger.begin_run()

            probe = workloads.Probe(on_first_run=first_run,
                                    between=lambda: ledger.hidden(mark),
                                    chunks=chunks)
        else:
            probe = workloads.Probe(on_first_run=mark, between=mark,
                                    chunks=chunks)
        mark()
        if ledger:
            ledger.begin_setup()
        with probe:
            outcome = workloads.WORKLOADS[name](seed, probe)
        if ledger:
            ledger.end_run()
        mark()
        self.segments = [marks[i + 1][0] - marks[i][2]
                         for i in range(len(marks) - 1)]
        self.readings = [reading for _, reading, _ in marks]
        reference = cal.reference
        scaled = [seconds * 2 * reference
                  / (self.readings[i] + self.readings[i + 1])
                  for i, seconds in enumerate(self.segments)]
        self.setup_s, self.setup_scaled = self.segments[0], scaled[0]
        self.run_s, self.run_scaled = sum(self.segments[1:]), sum(scaled[1:])

        farm = probe.farm
        self.vsec = farm.sim.now
        self.relayed = workloads.relayed_packets(farm)
        self.attempted = outcome.attempted
        self.completed = outcome.completed
        self.digest = workloads.output_digest(farm, outcome)
        self.counts = workloads.farm_counts(farm)

    def scaled(self) -> dict:
        """Host-time metrics at the reference speed."""
        return {"vsec_per_s": self.vsec / self.run_scaled,
                "relayed_pps": self.relayed / self.run_scaled,
                "setup_s": self.setup_scaled}

    def record(self) -> dict:
        return {"digest": self.digest,
                "cal_readings_s": self.readings,
                "cal_first_last_ratio": self.readings[-1] / self.readings[0],
                "cal_max_min_ratio": max(self.readings) / min(self.readings),
                "segments_s": self.segments,
                "raw": {"setup_s": self.setup_s, "run_s": self.run_s,
                        "vsec_per_s": self.vsec / self.run_s,
                        "relayed_pps": self.relayed / self.run_s,
                        "vsec": self.vsec, "relayed": self.relayed},
                "scaled": self.scaled(),
                "attempted": self.attempted, "completed": self.completed}


def setup_passes(workloads, cal, name: str, seed: int) -> list:
    """Scaled set-up seconds of build-only passes: SETUP_BATCHES
    batches of SETUP_PER_BATCH, each batch bracketed by calibration
    readings."""
    def stop():
        raise SetupDone

    scaled = []
    for _ in range(SETUP_BATCHES):
        before = cal.reading(CAL_SAMPLES)
        times = []
        for _ in range(SETUP_PER_BATCH):
            # Each pass starts from a clean collector, so every pass
            # meets the same collections (cheap: see gc.freeze in main).
            gc.collect()
            probe = workloads.Probe(on_first_run=stop)
            started = perf_counter()
            try:
                with probe:
                    workloads.WORKLOADS[name](seed, probe)
            except SetupDone:
                pass
            times.append(probe.first_run - started)
        after = cal.reading(CAL_SAMPLES)
        speed = (before + after) / 2 / cal.reference
        scaled.extend(seconds / speed for seconds in times)
    return scaled


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workloads, cal, name: str, seed: int,
            seconds: float, record: dict) -> dict:
    """Timed runs for ``seconds`` of host time; medians of each."""
    reps = []
    started = perf_counter()
    while len(reps) < MIN_REPS or perf_counter() - started < seconds:
        reps.append(Rep(workloads, cal, name, seed))
    setups = setup_passes(workloads, cal, name, seed)
    record["reps"] = [rep.record() for rep in reps]
    record["setup_passes_s"] = setups
    record["counts"] = reps[-1].counts
    scaled = [rep.scaled() for rep in reps]
    return {
        "reps": reps,
        "metrics": {
            "vsec_per_s": median(s["vsec_per_s"] for s in scaled),
            "relayed_pps": median(s["relayed_pps"] for s in scaled),
            "setup_s": median(setups + [s["setup_s"] for s in scaled]),
            "peak_rss_mb": peak_rss_mb(),
        },
    }


def traced(workloads, cal, layers, name: str, seed: int,
           record: dict):
    """One untraced and one traced run of the same seed."""
    base = Rep(workloads, cal, name, seed)
    ledger = layers.Ledger()
    ledger.install()
    try:
        spanned = Rep(workloads, cal, name, seed, ledger=ledger)
    finally:
        ledger.uninstall()
    record["reps"] = [base.record(), spanned.record()]
    record["boundaries"] = ledger.dump()

    run_root = ledger.roots[layers.RUN]
    setup_root = ledger.roots[layers.SETUP]
    totals = ledger.layer_totals(layers.RUN)
    setup_totals = ledger.layer_totals(layers.SETUP)
    # The span stack's total against the run time the benchmark's own
    # marks measured around it: lost or double-counted spans show here.
    covered = sum(own for _calls, own in totals.values())
    record["layer_sum_error"] = abs(covered - spanned.run_s) / spanned.run_s
    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_share"] = totals[layer][1] / run_root
        metrics[f"{layer}.calls"] = totals[layer][0]
    for layer in layers.SETUP_LAYERS:
        metrics[f"setup.{layer}.self_share"] = (
            setup_totals[layer][1] / setup_root)
    counts = spanned.counts
    metrics.update(counts)
    metrics["sim.events_per_vsec"] = counts["sim.events"] / spanned.vsec
    metrics["sim.peak_pending"] = ledger.peak_pending
    metrics["net.packet.copies_per_relayed"] = (
        ledger.calls("repro.net.packet:EthernetFrame.copy")
        / max(spanned.relayed, 1))
    metrics["net.packet.to_bytes_calls"] = sum(
        ledger.calls(f"repro.net.packet:{cls}.to_bytes")
        for cls in ("EthernetFrame", "IPv4Packet", "TCPSegment",
                    "UDPDatagram"))
    metrics["net.link.transmits"] = ledger.calls(
        "repro.net.link:Link.transmit")
    metrics["net.capture.records"] = ledger.calls(
        "repro.net.capture:PacketTrace.capture")
    metrics["policies.decisions"] = sum(
        stat.phases[layers.RUN][0] for stat in ledger.boundaries.values()
        if stat.layer == "policies" and stat.name.endswith(".decide"))
    metrics["gc.pause_share"] = totals["gc"][1] / run_root
    metrics["gc.gen2_collections"] = ledger.gc_collections[2]
    metrics["trace.overhead_ratio"] = spanned.run_scaled / base.run_scaled
    return base, spanned, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "farm.py")):
        print(f"farmbench: no farm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import calibration
    import layers
    import workloads

    name = args.workload
    default_seed = workloads.DEFAULT_SEEDS[name]
    seed = default_seed if args.seed is None else args.seed
    record = {"workload": name, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "python": sys.version.split()[0],
              "reference_cal_s": calibration.REFERENCE_S}
    cal = calibration.Calibrator()
    # The benchmark's own long-lived objects (modules, the calibration
    # pool) move out of the collector's reach, so the farm's full
    # collections walk only the farm.
    gc.collect()
    gc.freeze()

    # Warm-up at the default seed, checked against the pinned digest.
    pinned = Rep(workloads, cal, name, default_seed, chunks=1)
    record["pinned"] = {"expected": PINNED[name], "got": pinned.digest}
    problems = []
    if pinned.digest != PINNED[name]:
        problems.append(f"digest at default seed {default_seed} is "
                        f"{pinned.digest}, pinned {PINNED[name]}")

    if args.trace:
        base, spanned, metrics = traced(workloads, cal, layers,
                                        name, seed, record)
        reps = [base, spanned]
        if spanned.digest != base.digest:
            problems.append("traced run digest differs from untraced")
        if record["layer_sum_error"] > 0.01:
            problems.append("layer self times do not sum to the root "
                            f"(error {record['layer_sum_error']:.4f})")
    else:
        measured = measure(workloads, cal, name, seed,
                           args.seconds, record)
        reps = measured["reps"]
        metrics = measured["metrics"]
        if len({rep.digest for rep in reps}) != 1:
            problems.append("same-seed runs gave different digests")

    correct = not problems
    attempted = sum(rep.attempted for rep in reps)
    completed = sum(rep.completed for rep in reps)
    if not correct:
        completed = 0
    failed = attempted - completed
    if args.trace:
        units = {key: layers.unit_of(key) for key in metrics}
    else:
        metrics["completed_frac"] = completed / attempted if attempted else 0.0
        units = END_TO_END_UNITS
    record.update(correct=correct, problems=problems, attempted=attempted,
                  failed=failed, metrics=metrics)

    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS,
                        f"{name}-seed{seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")

    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    for key in sorted(metrics):
        print(f"{key:40s} {metrics[key]:.6g} {units[key]}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {key: {"value": metrics[key], "unit": units[key]}
                          for key in sorted(metrics)}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
