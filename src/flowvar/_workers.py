"""Worker processes behind ``training.train_jobs``, and the loop they run.

Each worker is ``python -m flowvar._workers``: a fresh interpreter, so the
caller's ``__main__`` is never imported again and nothing is forked. Its
environment pins OpenBLAS to one thread before numpy loads (two workers with
two BLAS threads each would oversubscribe a 2-core machine and stall every
GEMM). It starts in the directory that holds this copy of the package, which
``-m`` puts first on ``sys.path``, so neither a ``flowvar`` nor a ``numpy``
in the caller's working directory shadows the caller's own.

Parent and worker talk over the worker's stdin and stdout in frames: an
8-byte little-endian length, then a pickle. The parent sends (task, job); the
worker replies with (report, parameters as raw float64 bytes) or with the
exception the job raised. A worker exits when it reads end of file, so it
outlives neither ``close`` nor a parent that died.

The workers start on first use and are reused by later calls in the same
interpreter; one that died while idle is replaced before the next call, and
an exit handler stops them.
"""
from __future__ import annotations

import atexit
import os
import pickle
import select
import signal
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

from .models import MlpVelocity
from .training import TrainingError, run_job

_LENGTH = struct.Struct("<Q")


def _read_frame(stream):
    """One frame's payload, or None at end of file."""
    head = stream.read(_LENGTH.size)
    if len(head) < _LENGTH.size:
        return None
    (size,) = _LENGTH.unpack(head)
    body = stream.read(size)
    return body if len(body) == size else None


def _write_frame(stream, payload: bytes) -> None:
    stream.write(_LENGTH.pack(len(payload)))
    stream.write(payload)
    stream.flush()


class _Worker:
    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", __name__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=Path(__file__).resolve().parent.parent,
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))

    def fileno(self) -> int:
        return self.proc.stdout.fileno()

    def _died(self) -> TrainingError:
        self.proc.kill()  # a no-op when it has already exited
        return TrainingError(f"training worker {self.proc.pid} stopped during "
                             f"a job (exit code {self.proc.wait()})")

    def send(self, payload: bytes) -> None:
        try:
            _write_frame(self.proc.stdin, payload)
        except BrokenPipeError:
            raise self._died() from None

    def receive(self, arch):
        """The job's (model, report), or the exception it raised."""
        body = _read_frame(self.proc.stdout)
        if body is None:
            raise self._died()
        reply = pickle.loads(body)
        if isinstance(reply, BaseException):
            return reply
        report, raw = reply
        params = np.frombuffer(bytearray(raw), dtype=np.float64)
        return MlpVelocity(arch, params), report

    def stop(self, kill: bool) -> None:
        if kill:
            self.proc.kill()
        try:
            self.proc.stdin.close()  # end of file: an idle worker exits
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class _Pool:
    def __init__(self):
        self._workers = []
        self._lock = threading.Lock()

    def run(self, task, jobs, n: int) -> list:
        frames = [pickle.dumps((task, job), pickle.HIGHEST_PROTOCOL)
                  for job in jobs]
        with self._lock:
            dead = [w for w in self._workers if w.proc.poll() is not None]
            for worker in dead:  # died while idle: a new one takes its place
                worker.stop(kill=True)
                self._workers.remove(worker)
            while len(self._workers) < n:
                self._workers.append(_Worker())
            try:
                results = self._dispatch(self._workers[:n], jobs, frames)
            except BaseException:
                # a worker died or the caller was interrupted: workers may be
                # mid-job, so none is reused
                self._stop(kill=True)
                raise
        for result in results:
            if isinstance(result, BaseException):
                raise result
        return results

    @staticmethod
    def _dispatch(workers, jobs, frames) -> list:
        """Jobs go out in order to whichever worker is free. After a job
        fails no more go out, but those running finish, so every job before
        the first failure has its result."""
        results = [None] * len(jobs)
        todo = iter(range(len(jobs)))
        busy = {}

        def feed(worker):
            i = next(todo, None)
            if i is not None:
                worker.send(frames[i])
                busy[worker] = i

        for worker in workers:
            feed(worker)
        failed = False
        while busy:
            ready, _, _ = select.select(list(busy), [], [])
            for worker in ready:
                i = busy.pop(worker)
                results[i] = worker.receive(jobs[i].arch)
                failed = failed or isinstance(results[i], BaseException)
                if not failed:
                    feed(worker)
        return results

    def _stop(self, kill: bool) -> None:
        workers, self._workers = self._workers, []
        for worker in workers:
            worker.stop(kill)

    def close(self) -> None:
        with self._lock:
            self._stop(kill=False)


_POOL = _Pool()
atexit.register(_POOL.close)


def run(task, jobs, n: int) -> list:
    """``train_jobs`` on ``n`` reused worker processes."""
    return _POOL.run(task, jobs, n)


def main() -> None:
    """The worker loop: train each job read from stdin, reply on stdout."""
    # Ctrl-C reaches the whole process group; the parent stops its workers
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # a stray print goes to stderr, not into a frame
    requests = sys.stdin.buffer
    while True:
        body = _read_frame(requests)
        if body is None:
            return
        task, job = pickle.loads(body)
        try:
            model, report = run_job(task, job)
            reply = (report, model.params.tobytes())
        except Exception as ex:  # sent back, and raised by the caller
            reply = ex
        try:
            _write_frame(replies, pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
        except BrokenPipeError:  # the parent is gone
            return


if __name__ == "__main__":
    main()
