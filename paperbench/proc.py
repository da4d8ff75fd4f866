"""Run one program process and time it from outside.

:func:`run` starts a child, timestamps each stderr line as it arrives
(stderr is line-buffered in Python 3.9+, so a line arrives when it is
printed), reaps the child with ``os.wait4`` for its peak RSS, and kills
it if it outlives its deadline.  :class:`Server` does the same for a
long-lived ``repro serve`` that is stopped with SIGINT.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
PROBE_MAIN = os.path.join(HERE, "probe_main.py")


@dataclass
class Exit:
    """How one child process ended."""

    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: List[Tuple[float, str]] = field(default_factory=list)

    def first_line(self, prefix: str) -> Optional[Tuple[float, str]]:
        """(seconds after start, text) of the first stderr line with ``prefix``."""
        for at, line in self.stderr:
            if line.startswith(prefix):
                return at, line
        return None

    def stderr_text(self) -> str:
        return "".join(line for _, line in self.stderr)


def program_env(root: str) -> Dict[str, str]:
    """The environment every program process gets.

    ``src/`` of the checkout goes on ``PYTHONPATH``; ``REPRO_FAULTS`` is
    cleared so no fault injection is armed; the default cache and run
    store locations are pointed into the work tree, although every
    command also names its own directories; and git, which the program
    asks for a revision, does not search above the checkout.
    """
    env = dict(os.environ)
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(root)
    env.pop("REPRO_FAULTS", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["REPRO_CACHE_DIR"] = os.path.join(root, ".paperbench_work", "default-cache")
    env["REPRO_RUNS_DIR"] = os.path.join(root, ".paperbench_work", "default-runs")
    return env


def program_argv(args: Sequence[str], probe_out: Optional[str] = None) -> List[str]:
    """``python -m repro <args>``, or the probing launcher when tracing."""
    if probe_out is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, PROBE_MAIN, probe_out, *args]


def _reap(proc: subprocess.Popen) -> Tuple[int, float, float]:
    """Wait for ``proc``; (returncode, exit time, peak RSS in MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    ended = time.perf_counter()
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    return code, ended, usage.ru_maxrss / 1024.0


def _drain(stream, sink: List[Tuple[float, str]], started: float) -> None:
    for line in iter(stream.readline, ""):
        sink.append((time.perf_counter() - started, line))
    stream.close()


def run(args: Sequence[str], env: Dict[str, str], cwd: str,
        timeout: float, probe_out: Optional[str] = None) -> Exit:
    """Run ``repro <args>`` to completion and time it."""
    stderr_lines: List[Tuple[float, str]] = []
    stdout_lines: List[Tuple[float, str]] = []
    started = time.perf_counter()
    proc = subprocess.Popen(
        program_argv(args, probe_out), cwd=cwd, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    readers = [
        threading.Thread(target=_drain, args=(proc.stdout, stdout_lines, started)),
        threading.Thread(target=_drain, args=(proc.stderr, stderr_lines, started)),
    ]
    for reader in readers:
        reader.start()
    watchdog = threading.Timer(timeout, _kill, args=(proc,))
    watchdog.start()
    try:
        code, ended, rss = _reap(proc)
    except BaseException:
        # Interrupted while waiting: take the child down with us.
        _kill(proc)
        os.waitpid(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    finally:
        watchdog.cancel()
        for reader in readers:
            reader.join()
    return Exit(
        returncode=code,
        wall_s=ended - started,
        peak_rss_mb=rss,
        stdout="".join(line for _, line in stdout_lines),
        stderr=stderr_lines,
    )


def _kill(proc: subprocess.Popen) -> None:
    # os.kill, not Popen.kill: Popen polls first and could reap the
    # child before os.wait4 collects its resource usage.
    try:
        os.kill(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # already exited between the deadline and the kill


class Server:
    """A ``repro serve`` child: start, stop with SIGINT, reap."""

    def __init__(self, args: Sequence[str], env: Dict[str, str], cwd: str,
                 probe_out: Optional[str] = None) -> None:
        self.started = time.perf_counter()
        self._stderr: List[Tuple[float, str]] = []
        self.proc = subprocess.Popen(
            program_argv(args, probe_out), cwd=cwd, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self._reader = threading.Thread(
            target=_drain, args=(self.proc.stderr, self._stderr, self.started)
        )
        self._reader.start()
        self.returncode: Optional[int] = None
        self.peak_rss_mb = 0.0

    def _collect(self, block: bool) -> bool:
        """Reap the child if it has exited (or wait when ``block``)."""
        if self.returncode is not None:
            return True
        pid, status, usage = os.wait4(self.proc.pid, 0 if block else os.WNOHANG)
        if pid == 0:
            return False
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        return True

    def alive(self) -> bool:
        return not self._collect(block=False)

    def stderr_text(self) -> str:
        return "".join(line for _, line in self._stderr)

    def stop(self, timeout: float = 20.0) -> int:
        """SIGINT, then SIGKILL after ``timeout``; returns the exit code."""
        if self.alive():
            os.kill(self.proc.pid, signal.SIGINT)
            watchdog = threading.Timer(timeout, _kill, args=(self.proc,))
            watchdog.start()
            try:
                self._collect(block=True)
            finally:
                watchdog.cancel()
        self._reader.join()
        assert self.returncode is not None
        return self.returncode
