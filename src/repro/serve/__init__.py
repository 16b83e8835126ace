"""repro.serve: the persistent study service.

Every ``repro`` CLI invocation before this package paid the same cold
tax on every call: load the fault corpora, re-open the study memo,
construct the default study and its graph, then
run one request's worth of work and throw it all away.  ``repro serve``
keeps that warm state resident in a long-running daemon and serves
``study`` / ``mine`` / ``replay`` / ``trace-summary`` requests over a
local unix socket, line-delimited JSON both ways:

* :mod:`~repro.serve.protocol` -- the wire format: ``Request`` /
  ``Response``, encode/decode with structural validation, the status
  vocabulary (``ok`` / ``error`` / ``rejected-busy`` /
  ``shutting-down``);
* :mod:`~repro.serve.admission` -- the front door: bounded in-service
  slots (explicit ``queue-full`` backpressure, never an unbounded
  queue), per-client token-bucket quotas, and the drain flag graceful
  shutdown flips;
* :mod:`~repro.serve.service` -- :class:`StudyService`, the
  transport-free request core: warm shared state, per-kind handlers
  dispatching single-node runs onto the study graph (same digests as
  the batch CLIs, by the graph's equivalence contract), a response memo
  for repeated warm requests, obs spans and monitor heartbeats per
  request;
* :mod:`~repro.serve.server` -- :class:`StudyServer` /
  :func:`run_server`, the unix-socket daemon: thread per connection,
  SIGTERM/SIGINT graceful drain, pidfile, and a live healthz snapshot
  file beside the socket;
* :mod:`~repro.serve.client` -- :class:`ServeClient`, the synchronous
  one-connection client the CLI and load generator use.

Served results are bit-identical to their batch-CLI equivalents; the
serve benchmark asserts that equality before it measures anything.
"""

from repro.serve.admission import (
    REASON_DRAINING,
    REASON_QUEUE_FULL,
    REASON_QUOTA,
    AdmissionController,
    AdmissionDecision,
    TokenBucket,
)
from repro.serve.client import ServeClient, ServeConnectionError, wait_for_server
from repro.serve.protocol import (
    DEFAULT_CLIENT,
    KIND_MINE,
    KIND_PING,
    KIND_REPLAY,
    KIND_STATUS,
    KIND_STUDY,
    KIND_TRACE_SUMMARY,
    PROTOCOL_VERSION,
    REQUEST_KINDS,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED_BUSY,
    STATUS_SHUTTING_DOWN,
    ProtocolError,
    Request,
    Response,
    decode_request,
    decode_response,
    encode_line,
)
from repro.serve.server import (
    StudyServer,
    pid_path_for,
    run_server,
    status_path_for,
)
from repro.serve.service import MEMOIZED_KINDS, StudyService, request_key

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "DEFAULT_CLIENT",
    "KIND_MINE",
    "KIND_PING",
    "KIND_REPLAY",
    "KIND_STATUS",
    "KIND_STUDY",
    "KIND_TRACE_SUMMARY",
    "MEMOIZED_KINDS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "REASON_DRAINING",
    "REASON_QUEUE_FULL",
    "REASON_QUOTA",
    "REQUEST_KINDS",
    "Request",
    "Response",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_REJECTED_BUSY",
    "STATUS_SHUTTING_DOWN",
    "ServeClient",
    "ServeConnectionError",
    "StudyServer",
    "StudyService",
    "TokenBucket",
    "decode_request",
    "decode_response",
    "encode_line",
    "pid_path_for",
    "request_key",
    "run_server",
    "status_path_for",
    "wait_for_server",
]
