"""CPU time rescaled to a reference speed of the machine.

The benchmark shares a few cores of a busy host.  A core's speed drifts
by up to 2x within seconds, and a slow spell can last a whole run, so a
raw CPU time says as much about the neighbours as about the program.
Sampling the speed every second or so is not enough, nor is sampling it
on the other core: it has to be sampled as finely as it changes, on the
core the program runs on, with work that slows down the way the program
does.

``kernel()`` is that work: a fixed Dirichlet partial sum of complex
powers at 30 digits, the same mpmath arithmetic as zetakit's
Euler-Maclaurin sums, in a private mpmath context so that it never
touches the program's precision.  ``factor(c)`` is ``REF_KERNEL_S / c``
for a kernel that took ``c`` CPU seconds: 1 at the reference speed, 0.5
when the core runs at half of it.  CPU time multiplied by that factor
is *reference CPU time*: what the work would have taken at the
reference speed.

Two ways to apply it:

- In one process, interleave ``kernel()`` with the timed calls and
  rescale each call by the kernels next to it (``points.py``, and the
  set-up runs in ``run.py``).
- For a process the benchmark cannot interleave (a CLI command and its
  worker pool), ``install(directory)`` pins the process to one core and
  starts a thread that runs ``kernel()`` every ``PERIOD_S``.  Each
  sample appends one line to ``<directory>/<pid>.speed``: process CPU,
  sampler CPU and the kernel's time.  Worker processes forked later get
  a sampler of their own, pinned to the cores in turn.  ``reference_cpu``
  reads the files back.

REF_KERNEL_S is the kernel's time at the fast end of what a 2-core
Xeon host gave (its tenth percentile); it fixes the unit only, since
every commit is rescaled by the same constant.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

import mpmath

REF_KERNEL_S = 0.7e-3
PERIOD_S = 0.02
_TERMS = 24

_ctx = mpmath.MPContext()
_ctx.dps = 30
_S = _ctx.mpc(_ctx.mpf("0.5"), _ctx.mpf("100.25"))


def kernel():
    """A fixed amount of mpmath work: sum of k^-s for k = 2..25 at 30 digits."""
    acc = _ctx.mpc(0)
    for k in range(2, 2 + _TERMS):
        acc += _ctx.exp(-_S * _ctx.log(k))
    return acc


def timed_kernel() -> float:
    """CPU seconds one kernel() took on this thread."""
    c0 = time.thread_time()
    kernel()
    return time.thread_time() - c0


def factor(kernel_s: float) -> float:
    return REF_KERNEL_S / kernel_s


# ----------------------------------------------------------------------
# Sampler thread for processes the benchmark cannot interleave
# ----------------------------------------------------------------------

_state: dict = {}


def _pin(slot: int) -> None:
    cpus = sorted(_state["cpus"])
    os.sched_setaffinity(0, {cpus[slot % len(cpus)]})


def _sample_loop(fd: int, stop: threading.Event) -> None:
    while not stop.wait(PERIOD_S):
        c = timed_kernel()
        os.write(fd, f"{time.process_time()} {time.thread_time()} {c}\n".encode())
    _state["sampler_cpu"] = time.thread_time()


def _start(slot: int) -> None:
    _pin(slot)
    fd = os.open(_state["dir"] / f"{os.getpid()}.speed", os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    os.write(fd, f"{time.process_time()} 0 0\n".encode())
    stop = threading.Event()
    thread = threading.Thread(target=_sample_loop, args=(fd, stop), daemon=True)
    _state.update(fd=fd, stop=stop, thread=thread)
    thread.start()


def _before_fork() -> None:
    _state["forks"] += 1


def _after_fork_in_child() -> None:
    _start(_state["forks"])


def install(directory: Path) -> None:
    """Sample this process's speed, and that of every child it forks."""
    _state.update(dir=Path(directory), cpus=os.sched_getaffinity(0), forks=0)
    _start(0)
    os.register_at_fork(before=_before_fork, after_in_child=_after_fork_in_child)


def finish() -> None:
    """Stop this process's sampler and write its last line."""
    if "stop" not in _state:
        return
    _state["stop"].set()
    _state["thread"].join()
    cpu = time.process_time()
    c = timed_kernel()
    os.write(_state["fd"], f"{cpu} {_state['sampler_cpu']} {c}\n".encode())
    os.close(_state["fd"])


def _process_reference_cpu(lines: list[str]) -> tuple[float, float, int]:
    """(reference CPU, raw CPU, samples) of one process's program threads.

    The program's CPU between two samples is the process CPU minus the
    sampler's own, rescaled by the factor of the sample that ends the
    interval.  A process that ended without finish() (a pool worker
    leaves through os._exit) loses at most one period at its end.
    """
    rows = [tuple(map(float, line.split())) for line in lines if line.strip()]
    if not rows:  # killed before its first line
        return 0.0, 0.0, 0
    ref = raw = 0.0
    prev_proc, prev_thread = rows[0][0], 0.0
    for proc, thread, kernel_s in rows[1:]:
        program = (proc - prev_proc) - (thread - prev_thread)
        raw += program
        ref += program * factor(kernel_s)
        prev_proc, prev_thread = proc, thread
    return ref, raw, len(rows) - 1


def reference_cpu(directory: Path) -> tuple[float, float, int]:
    """(reference CPU s, raw CPU s, samples) summed over every process sampled in directory."""
    ref = raw = 0.0
    samples = 0
    for path in sorted(Path(directory).glob("*.speed")):
        r, w, n = _process_reference_cpu(path.read_text().splitlines())
        ref, raw, samples = ref + r, raw + w, samples + n
    return ref, raw, samples
