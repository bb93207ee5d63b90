"""The served workloads' server: ``python -m repro.cli serve`` as a child.

The server runs exactly as a user starts it (``serve --db ... --backend
corpus --workers 2 --port 0``) in its own process, so its memory, its
threads and its event loop are separate from the load generator.  Its
output goes to log files in the benchmark's work directory; the bound port
is read from its ``serving ... on HOST:PORT`` start-up line.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import IO, List, Optional, Sequence, Tuple

_LISTENING = re.compile(r" on (\S+):(\d+) ")


class ServerError(RuntimeError):
    """The server did not come up or did not stop."""


class ServerProcess:
    """One ``repro.cli serve`` child process."""

    def __init__(self, root: Path, db_path: Path, log_dir: Path,
                 extra_args: Sequence[str] = ()) -> None:
        self.root = root
        self.db_path = db_path
        self.log_dir = log_dir
        self.extra_args = list(extra_args)
        self.process: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None
        self._logs: List[IO[bytes]] = []

    def command(self) -> List[str]:
        return [sys.executable, "-u", "-m", "repro.cli", "serve",
                "--db", str(self.db_path), "--backend", "corpus",
                "--workers", "2", "--port", "0", *self.extra_args]

    def start(self, timeout: float = 60.0) -> Tuple[str, int]:
        """Spawn the server and wait for its listening line."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "") \
            if env.get("PYTHONPATH") else src
        stdout_path = self.log_dir / f"server-{self.db_path.stem}.out"
        stderr_path = self.log_dir / f"server-{self.db_path.stem}.err"
        stdout = open(stdout_path, "wb")
        stderr = open(stderr_path, "wb")
        self._logs = [stdout, stderr]
        # stop() uses the server's Ctrl-C path.  A benchmark started as a
        # background job ignores SIGINT, and an ignored signal stays ignored
        # across exec, so the server would only die at stop()'s kill.
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            self.process = subprocess.Popen(
                self.command(), cwd=self.root, env=env,
                stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr)
        finally:
            signal.signal(signal.SIGINT, previous)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _LISTENING.search(stdout_path.read_text(errors="replace"))
            if match:
                self.address = (match.group(1), int(match.group(2)))
                return self.address
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise ServerError(
            f"the server did not start: "
            f"{stderr_path.read_text(errors='replace')[-2000:]}")

    def stop(self, timeout: float = 20.0) -> None:
        """Interrupt the server (its Ctrl-C path) and reap it."""
        process, self.process = self.process, None
        try:
            if process is not None and process.poll() is None:
                process.send_signal(signal.SIGINT)
                try:
                    process.wait(timeout)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait(timeout)
        finally:
            for log in self._logs:
                log.close()
            self._logs = []
