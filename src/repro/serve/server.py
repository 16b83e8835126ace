"""The serve daemon: a unix-socket front end over :class:`StudyService`.

One listening ``AF_UNIX`` stream socket, one thread per connection,
line-delimited JSON both ways (see :mod:`repro.serve.protocol`).  The
transport layer is deliberately thin: admission, quotas, and request
semantics all live in the service core, so everything the socket path
does is framing, connection bookkeeping, and lifecycle:

* **startup** writes a pidfile next to the socket (``repro serve stop``
  signals it) and starts a long-lived :class:`repro.obs.RunMonitor`
  whose atomic snapshot file doubles as the health endpoint -- every
  request heartbeats it, so ``repro serve status`` works even when the
  daemon is too busy to answer a status request;
* **graceful drain** on SIGTERM/SIGINT (or :meth:`StudyServer.
  shutdown`): stop admitting (new requests are answered
  ``shutting-down``), stop accepting, let every in-flight request run
  to completion and flush its response, then write the terminal
  snapshot and remove the socket and pidfile.

A killed daemon (SIGKILL) leaves a stale socket behind; startup detects
and replaces a socket nobody answers.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from pathlib import Path
from typing import Any, Iterable

from repro import obs
from repro.serve.admission import AdmissionController
from repro.serve.protocol import (
    STATUS_ERROR,
    ProtocolError,
    Request,
    Response,
    decode_request,
    encode_line,
)
from repro.serve.service import StudyService

#: How long shutdown waits for in-flight requests before closing anyway.
DEFAULT_DRAIN_TIMEOUT = 30.0

#: Monitor label for serve-daemon snapshots.
SERVE_LABEL = "serve"


def status_path_for(socket_path: str | Path) -> Path:
    """The healthz snapshot file paired with a socket path."""
    return Path(str(socket_path) + ".status.json")


def pid_path_for(socket_path: str | Path) -> Path:
    """The pidfile paired with a socket path."""
    return Path(str(socket_path) + ".pid")


class StudyServer:
    """The daemon: listener, connection threads, and lifecycle.

    Args:
        service: the request core (its monitor is created here when
            absent, so the snapshot file lives next to the socket).
        socket_path: ``AF_UNIX`` path to bind (note the ~100-byte OS
            limit on unix socket paths).
        status_path: healthz snapshot file (default: beside the socket).
        drain_timeout: how long :meth:`shutdown` waits for in-flight
            requests.
    """

    def __init__(
        self,
        service: StudyService,
        socket_path: str | Path,
        *,
        status_path: str | Path | None = None,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
    ) -> None:
        self.service = service
        self.socket_path = Path(socket_path)
        self.status_path = (
            Path(status_path) if status_path is not None else status_path_for(socket_path)
        )
        self.drain_timeout = drain_timeout
        if service.monitor is None:
            service.monitor = obs.RunMonitor(self.status_path, label=SERVE_LABEL)
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._connections: set[socket.socket] = set()
        self._threads: set[threading.Thread] = set()
        self._conn_lock = threading.Lock()
        self._busy = 0  # requests between readline and response flush
        self._stopping = threading.Event()
        self._stopped = threading.Event()

    # -- lifecycle ------------------------------------------------------- #

    def start(self) -> None:
        """Bind, listen, write the pidfile, and begin accepting."""
        self._remove_stale_socket()
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(str(self.socket_path))
        listener.listen(128)
        self._listener = listener
        pid_path_for(self.socket_path).write_text(str(os.getpid()), encoding="utf-8")
        self.service.warm()
        self.service.monitor.run_started(
            total=0, workers=self.service.workers, pending=[]
        )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        self._accept_thread.start()

    def serve_forever(self) -> None:
        """:meth:`start` (if needed) then block until shutdown completes."""
        if self._listener is None:
            self.start()
        self._stopped.wait()

    def shutdown(self, *, drain: bool = True) -> None:
        """Drain and stop; safe to call more than once, from any thread.

        With ``drain`` (the default) the admission controller flips to
        draining -- in-flight requests finish and flush their responses,
        new ones are answered ``shutting-down`` -- and the server waits
        up to ``drain_timeout`` for the last request to complete before
        tearing connections down.
        """
        if self._stopping.is_set():
            self._stopped.wait()
            return
        self._stopping.set()
        self.service.begin_drain()
        if self._listener is not None:
            # Drain the accept backlog first: a client that connected
            # before the drain began deserves a shutting-down answer,
            # not a connection reset.  The accept thread may race us for
            # these; either accepter handling a connection is fine.
            try:
                self._listener.settimeout(0)
                while True:
                    conn, _ = self._listener.accept()
                    self._spawn_connection(conn)
            except OSError:
                pass
            # close() alone leaves the accept thread blocked in accept();
            # shutting the listener down wakes it with an error.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        if drain:
            self._wait_until_idle(self.drain_timeout)
        with self._conn_lock:
            connections = list(self._connections)
            threads = list(self._threads)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        for thread in threads:
            thread.join(timeout=1.0)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=1.0)
        monitor = self.service.monitor
        if monitor is not None:
            monitor.run_finished()
        for path in (self.socket_path, pid_path_for(self.socket_path)):
            try:
                path.unlink()
            except OSError:
                pass
        self._stopped.set()

    def _wait_until_idle(self, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while True:
            with self._conn_lock:
                busy = self._busy
            # The busy count (not admission.pending) is the drain
            # barrier: it stays up until the response is flushed, so a
            # drained client never loses an in-flight answer.
            if busy == 0 and self.service.admission.pending == 0:
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.01)

    def _remove_stale_socket(self) -> None:
        """Replace a socket file a previous (killed) daemon left behind.

        Raises:
            FileExistsError: a live daemon still answers on the path.
        """
        if not self.socket_path.exists():
            return
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.settimeout(0.5)
        try:
            probe.connect(str(self.socket_path))
        except OSError:
            self.socket_path.unlink()  # stale: nobody listening
        else:
            probe.close()
            raise FileExistsError(
                f"a serve daemon is already listening on {self.socket_path}"
            )
        finally:
            try:
                probe.close()
            except OSError:
                pass

    # -- connections ----------------------------------------------------- #

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed by shutdown
            self._spawn_connection(conn)

    def _spawn_connection(self, conn: socket.socket) -> None:
        conn.settimeout(None)  # inherit no timeout from a draining listener
        thread = threading.Thread(
            target=self._serve_connection, args=(conn,), daemon=True
        )
        with self._conn_lock:
            self._connections.add(conn)
            self._threads.add(thread)
        thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            reader = conn.makefile("rb")
            while True:
                line = reader.readline()
                if not line:
                    return
                with self._conn_lock:
                    self._busy += 1
                try:
                    response = self._respond(line)
                    try:
                        conn.sendall(encode_line(response))
                    except OSError:
                        return
                finally:
                    with self._conn_lock:
                        self._busy -= 1
        finally:
            with self._conn_lock:
                self._connections.discard(conn)
                self._threads.discard(threading.current_thread())
            try:
                conn.close()
            except OSError:
                pass

    def _respond(self, line: bytes) -> Response:
        try:
            request = decode_request(line)
        except ProtocolError as exc:
            return Response(id="", status=STATUS_ERROR, error=str(exc))
        return self.service.handle(request)


def run_server(
    socket_path: str | Path,
    *,
    cache_dir: str | Path | None = None,
    workers: int = 1,
    max_pending: int = 64,
    quota_capacity: float | None = None,
    quota_refill_per_second: float = 0.0,
    status_path: str | Path | None = None,
    warm_nodes: Iterable[str] = (),
    install_signals: bool = True,
    on_ready: Any = None,
) -> StudyServer:
    """Build, warm, and run a serve daemon until it is shut down.

    The blocking entry point behind ``repro serve start --foreground``
    (and, in a detached subprocess, plain ``repro serve start``).
    SIGTERM and SIGINT trigger a graceful drain.

    Args:
        socket_path: unix socket to listen on.
        cache_dir: shared node-memo cache directory.
        workers: harness-pool workers for cold node execution.
        max_pending: admission bound (running + waiting requests).
        quota_capacity: per-client token-bucket burst (None = no quotas).
        quota_refill_per_second: per-client sustained request rate.
        status_path: healthz snapshot file override.
        warm_nodes: study-graph nodes to pre-execute at startup so the
            first client request is already a memo hit.
        install_signals: wire SIGTERM/SIGINT to graceful drain (must be
            called from the main thread; disable when embedding).
        on_ready: optional callable invoked once the socket is accepting
            and warm-up is done (tests use this to synchronise).

    Returns:
        The stopped server (after shutdown), for post-mortem inspection.
    """
    admission = AdmissionController(
        max_pending=max_pending,
        quota_capacity=quota_capacity,
        quota_refill_per_second=quota_refill_per_second,
    )
    service = StudyService(cache_dir=cache_dir, workers=workers, admission=admission)
    server = StudyServer(service, socket_path, status_path=status_path)
    if install_signals:
        def _graceful(signum: int, frame: Any) -> None:
            threading.Thread(
                target=server.shutdown, name="serve-drain", daemon=True
            ).start()

        signal.signal(signal.SIGTERM, _graceful)
        signal.signal(signal.SIGINT, _graceful)
    server.start()
    for node in warm_nodes:
        service.handle(Request(kind="study", params={"node": node}, client="warmup"))
    if on_ready is not None:
        on_ready()
    server.serve_forever()
    return server
