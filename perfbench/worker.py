"""One fresh benchmark process: set up, run one batch, print its record.

    python3 perfbench/worker.py WORKLOAD SEED MODE [SPANS_PATH]

Imports ``qdrepeater`` from ``src/`` of the checkout that holds this file,
generates the seeded batch, makes one warm-up call of the workload's
smallest task, then runs the batch as a closed loop: one task at a time,
each started when the previous one has returned.  MODE is ``timed``
(host-speed probes between and during tasks), ``plain`` (probes between
tasks only) or ``traced`` (as ``plain``, and every call into the layers is
recorded as a span, see ``tracing.py``).

Prints one JSON line: the monotonic time at which the batch started
(``run.py`` subtracts its own time of spawning this process to get
``setup_s``), per-task kinds, times, outputs and check failures, the probe
times around the tasks, the peak resident memory, and the per-layer summary
when traced.
"""

from __future__ import annotations

import json
import pathlib
import resource
import signal
import statistics
import sys
import traceback
from time import perf_counter

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_program():
    sys.path.insert(0, str(SRC))
    import qdrepeater
    if pathlib.Path(qdrepeater.__file__).resolve().parent != SRC / "qdrepeater":
        raise ImportError(f"qdrepeater imported from {qdrepeater.__file__}, not from {SRC}")


_rng = np.random.default_rng(0)
_PROBE_MATS = [_rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8)) for _ in range(4)]
_PROBE_A = _rng.standard_normal(16) + 1j * _rng.standard_normal(16)
_PROBE_B = _PROBE_A * np.exp(0.3j)
_PROBE_BUF = _rng.standard_normal((16, 16, 16, 16)) + 0j
_PROBE_GATE = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))
_PROBE_BLOCK = _rng.standard_normal((16, 16384)) + 0j


def probe() -> float:
    """Time a fixed piece of work that uses no ``qdrepeater`` code.

    It mixes what the program spends its time on: interpreter work on small
    objects, numpy calls on 16-element vectors (phase-aligned comparison,
    as in state merging), small complex matrix products, and axis moves of
    a 1 MiB array.  Other tenants of the host slow this probe and the
    program alike, so ``run.py`` divides each task's time by the probes
    around and inside it.
    """
    t0 = perf_counter()
    acc: dict[int, int] = {}
    for i in range(1500):
        k = i % 61
        acc[k] = acc.get(k, 0) + (i * 7) % 13
    for _ in range(150):
        k = int(np.argmax(np.abs(_PROBE_B)))
        phase = _PROBE_A[k] / _PROBE_B[k]
        np.allclose(_PROBE_A, phase / abs(phase) * _PROBE_B, atol=1e-10)
    v = _PROBE_MATS[0][:, 0]
    for i in range(100):
        v = _PROBE_MATS[i & 3] @ v
        v = v / np.abs(v).max()
    for axis in range(2):
        np.moveaxis(_PROBE_BUF, axis, 0).reshape(16, -1).copy()
    return perf_counter() - t0


def probe_blas() -> float:
    """Time 8 complex products of 16 x 16 by 16 x 16384, the shape of
    ``apply_map`` on a large register, which BLAS spreads over both cores."""
    t0 = perf_counter()
    for _ in range(8):
        _PROBE_GATE @ _PROBE_BLOCK
    return perf_counter() - t0


#: Seconds between probes taken during a task, from a timer signal.
PROBE_INTERVAL = 0.1


class HostSpeed:
    """Probe times, taken between tasks and every ``PROBE_INTERVAL`` during one.

    Host speed changes over seconds, so a task that runs for a second or
    more needs probes inside it, not only around it.  A timer signal
    interrupts the task between bytecodes and runs the probes; their time
    is taken out of the task's time.  Each sample is (start, probe time,
    BLAS probe time), the last 0 when ``with_blas`` is false.
    """

    def __init__(self, during_tasks: bool, with_blas: bool):
        self.samples: list[tuple[float, float, float]] = []
        self.during_tasks = during_tasks
        self.with_blas = with_blas
        self._busy = False

    def take(self, *_):
        if self._busy:      # the timer fired during a probe
            return
        self._busy = True
        try:
            start = perf_counter()
            small = probe()
            self.samples.append((start, small, probe_blas() if self.with_blas else 0.0))
        finally:
            self._busy = False

    def __enter__(self):
        if self.during_tasks:
            signal.signal(signal.SIGALRM, self.take)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc):
        if self.during_tasks:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_batch(workload: str, inputs: dict, reference: dict, tracer=None,
              probes_inside: bool = True) -> dict:
    """Run every task of the batch.  An exception fails its task, and the
    batch goes on.

    For each task, ``task_s`` is its time less the probes taken inside it;
    ``probe_s`` and ``blas_s`` are the means of every probe from the one
    just before it to the one just after it.  With ``probes_inside`` false,
    probes run only between tasks; traced batches need that, so that no
    probe lands inside a span.
    """
    from workloads import BLAS_SHARE, RUNNERS, check
    runner = RUNNERS[workload]
    kinds, times, probe_s, blas_s, outputs, failures = [], [], [], [], [], []
    with_blas = any(task["kind"] in BLAS_SHARE for task in inputs["tasks"])
    t_first = perf_counter()
    with HostSpeed(probes_inside, with_blas) as speed:
        speed.take()
        for i, task in enumerate(inputs["tasks"]):
            if tracer is not None:
                tracer.task_id = i
            kinds.append(task["kind"])
            output, why = None, None
            first = len(speed.samples) - 1
            t0 = perf_counter()
            try:
                output = runner(task)
            except Exception as exc:  # noqa: BLE001 - a failed task is counted, not fatal
                why = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
            inside = sum(a + b for start, a, b in speed.samples[first + 1:] if start >= t0)
            speed.take()
            times.append(elapsed - inside)
            probe_s.append(statistics.fmean(a for _, a, _ in speed.samples[first:]))
            blas_s.append(statistics.fmean(b for _, _, b in speed.samples[first:]))
            if output is not None:
                why = check(workload, task, output, reference)
            outputs.append(output)
            if why is not None:
                failures.append(f"{task['id']}: {why}")
    return {"t_first": t_first, "batch_s": perf_counter() - t_first, "kinds": kinds,
            "task_s": times, "probe_s": probe_s, "blas_s": blas_s,
            "first_probe_s": speed.samples[0][1],
            "outputs": outputs, "failures": failures}


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    if mode not in ("timed", "plain", "traced"):
        raise ValueError(f"unknown mode {mode!r}")
    spans_path = argv[3] if len(argv) > 3 else None
    _import_program()
    from workloads import RUNNERS, make_inputs

    inputs = make_inputs(workload, seed)
    reference = load_reference()
    RUNNERS[workload](inputs["warmup"])

    tracer = None
    if mode == "traced":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        record = run_batch(workload, inputs, reference, tracer, probes_inside=mode == "timed")
    finally:
        if tracer is not None:
            tracer.uninstall()
    record["largest"] = inputs["largest"]
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        record["layers"] = tracer.summary()
        if spans_path:
            tracer.write_jsonl(spans_path, origin=record["t_first"],
                               header={"workload": workload, "seed": seed,
                                       "batch_s": record["batch_s"], "kinds": record["kinds"]})
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:  # noqa: BLE001 - report and fail the process
        traceback.print_exc()
        sys.exit(2)
