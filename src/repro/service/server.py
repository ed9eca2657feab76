"""Server front-ends of the analysis service: unix socket and stdio.

``python -m repro serve --socket /tmp/repro.sock`` starts the daemon and
speaks the :mod:`repro.service.protocol` JSONL dialect over a local unix
socket; ``--stdio`` serves a single session over stdin/stdout instead
(handy for spawn-per-session supervisors and for CI smokes without
socket plumbing).  Either way, one :class:`~repro.service.daemon.
AnalysisService` instance backs every connection.

A ``shutdown`` request drains the service (graceful by default) and
stops the server; so does SIGINT/SIGTERM.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import sys
from typing import Any, Awaitable, Callable

from repro.service import protocol
from repro.service.admission import AdmissionController
from repro.service.daemon import AnalysisService, ServiceClosed
from repro.util.validation import ValidationError

__all__ = ["handle_message", "serve_unix", "serve_stdio", "main"]


async def handle_message(
    service: AnalysisService,
    message: dict[str, Any],
    *,
    send: Callable[[dict[str, Any]], Awaitable[None]],
    stop: Callable[[bool], None],
) -> bool:
    """Dispatch one decoded request; returns False to close the session.

    *send* writes one response line; *stop* is invoked with the drain
    flag when a ``shutdown`` request arrives (the front-end decides what
    stopping means).  Raises nothing: every failure becomes an error
    response.
    """
    rid = message.get("rid")
    op = message.get("op")
    try:
        if op == "hello":
            await send(
                protocol.ok_response(
                    rid,
                    schema=protocol.SCHEMA,
                    ops=sorted(protocol.REQUEST_OPS),
                    stats=service.stats(),
                )
            )
        elif op == "submit":
            spec = message.get("job") or {}
            job = await service.submit(spec.get("op", ""), spec.get("params"))
            await send(protocol.ok_response(rid, job=job.to_dict(with_result=False)))
        elif op == "status":
            job = service.status(str(message.get("id")))
            await send(protocol.ok_response(rid, job=job.to_dict(with_result=False)))
        elif op == "result":
            timeout = message.get("timeout")
            job = await service.result(
                str(message.get("id")),
                timeout_s=None if timeout is None else float(timeout),
            )
            await send(protocol.ok_response(rid, job=job.to_dict()))
        elif op == "cancel":
            cancelled = service.cancel(str(message.get("id")))
            await send(protocol.ok_response(rid, cancelled=cancelled))
        elif op == "stats":
            await send(protocol.ok_response(rid, stats=service.stats()))
        elif op == "events":
            # subscribe BEFORE acking so a client that saw the ok can
            # never miss events raced in over another connection
            queue = service.subscribe()
            await send(protocol.ok_response(rid, streaming=True))
            try:
                while True:
                    event = await queue.get()
                    await send({"event": event})
            finally:
                service.unsubscribe(queue)
        elif op == "shutdown":
            await send(protocol.ok_response(rid, stopping=True))
            stop(bool(message.get("drain", True)))
            return False
        else:
            await send(
                protocol.error_response(
                    f"unknown request op {op!r}",
                    error_type="protocol",
                    rid=rid,
                )
            )
    except KeyError:
        await send(
            protocol.error_response(
                f"unknown job id {message.get('id')!r}",
                error_type="unknown-job",
                rid=rid,
            )
        )
    except asyncio.TimeoutError:
        await send(
            protocol.error_response("result wait timed out", error_type="timeout", rid=rid)
        )
    except ServiceClosed as exc:
        await send(protocol.error_response(str(exc), error_type="closed", rid=rid))
    except ValidationError as exc:
        await send(protocol.error_response(str(exc), error_type="validation", rid=rid))
    return True


async def _session(
    service: AnalysisService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    stop: Callable[[bool], None],
) -> None:
    """Serve one JSONL session over a stream pair until EOF/shutdown."""
    lock = asyncio.Lock()  # events task and responses share the writer

    async def send(message: dict[str, Any]) -> None:
        async with lock:
            writer.write(protocol.encode(message))
            await writer.drain()

    try:
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                # the reader refused a line over its limit; the rest of
                # that line may still be in flight, so the session cannot
                # find the next request boundary — answer, then close
                await send(
                    protocol.error_response(
                        f"request line exceeds the {protocol.MAX_LINE_BYTES}-byte limit",
                        error_type="protocol",
                    )
                )
                break
            if not line:
                break
            try:
                message = protocol.decode(line)
            except protocol.ProtocolError as exc:
                await send(protocol.error_response(str(exc), error_type="protocol"))
                continue
            if not await handle_message(service, message, send=send, stop=stop):
                break
    except (ConnectionResetError, BrokenPipeError):
        pass
    finally:
        with contextlib.suppress(Exception):
            writer.close()
            await writer.wait_closed()


async def serve_unix(
    service: AnalysisService,
    path: str,
    *,
    ready: Callable[[], None] | None = None,
) -> None:
    """Serve the protocol on a unix socket at *path* until shut down.

    *ready* (if given) is called once the socket is listening — the CLI
    prints its readiness line from it.
    """
    stopped = asyncio.Event()
    drain_flag = {"drain": True}

    def stop(drain: bool) -> None:
        drain_flag["drain"] = drain
        stopped.set()

    server = await asyncio.start_unix_server(
        lambda r, w: _session(service, r, w, stop),
        path=path,
        limit=protocol.MAX_LINE_BYTES,
    )
    await service.start()
    if ready is not None:
        ready()
    try:
        async with server:
            await stopped.wait()
    finally:
        if drain_flag["drain"]:
            await service.drain()
        else:
            await service.close()


async def serve_stdio(service: AnalysisService) -> None:
    """Serve one session over stdin/stdout, then drain."""
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader(limit=protocol.MAX_LINE_BYTES)
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    transport, proto = await loop.connect_write_pipe(
        asyncio.streams.FlowControlMixin, sys.stdout
    )
    writer = asyncio.StreamWriter(transport, proto, reader, loop)
    await service.start()

    def stop(drain: bool) -> None:
        reader.feed_eof()

    try:
        await _session(service, reader, writer, stop)
    finally:
        await service.drain()


def build_service(args: argparse.Namespace) -> AnalysisService:
    """An :class:`AnalysisService` configured from parsed CLI *args*."""
    admission = None
    if args.capacity is not None:
        admission = AdmissionController(
            capacity=args.capacity,
            queue_bound=args.queue_bound or args.queue_limit,
            window=args.admission_window,
        )
    return AnalysisService(
        workers=args.workers,
        queue_limit=args.queue_limit,
        timeout_s=args.timeout,
        retries=args.retries,
        seed=args.seed,
        admission=admission,
        cache_dir=args.cache_dir,
        cache_shards=args.cache_shards,
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the analysis service daemon (JSONL protocol).",
    )
    parser.add_argument("--socket", help="unix socket path to listen on")
    parser.add_argument(
        "--stdio", action="store_true", help="serve one session over stdin/stdout"
    )
    parser.add_argument("--workers", type=int, default=2, help="executor width")
    parser.add_argument(
        "--queue-limit", type=int, default=64, help="bounded job queue depth"
    )
    parser.add_argument(
        "--timeout", type=float, default=None, help="per-attempt job timeout (s)"
    )
    parser.add_argument(
        "--retries", type=int, default=0, help="retry attempts per failed job"
    )
    parser.add_argument(
        "--capacity",
        type=float,
        default=None,
        help="admission capacity in demand units/s (enables eq. (8) control)",
    )
    parser.add_argument(
        "--queue-bound",
        type=int,
        default=None,
        help="admission queue bound b (defaults to --queue-limit)",
    )
    parser.add_argument(
        "--admission-window",
        type=int,
        default=512,
        help="requests characterized by the rolling admission window",
    )
    parser.add_argument("--cache-dir", help="persistent kernel cache directory")
    parser.add_argument(
        "--cache-shards", type=int, default=None, help="disk cache shard count"
    )
    parser.add_argument("--seed", type=int, default=None, help="base RNG seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point of ``python -m repro serve``."""
    args = _parser().parse_args(argv)
    if not args.socket and not args.stdio:
        print("serve: one of --socket PATH or --stdio is required", file=sys.stderr)
        return 2
    service = build_service(args)
    try:
        if args.stdio:
            asyncio.run(serve_stdio(service))
        else:

            def ready() -> None:
                print(f"listening on {args.socket}", flush=True)

            asyncio.run(serve_unix(service, args.socket, ready=ready))
    except KeyboardInterrupt:
        pass
    return 0
