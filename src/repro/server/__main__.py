"""``python -m repro.server`` — run the synthesis front door from the shell."""

from __future__ import annotations

import argparse
import asyncio

from repro.server.app import SynthesisServer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve repro.api over HTTP (stdlib asyncio, no dependencies).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    parser.add_argument(
        "--port", type=int, default=8787, help="bind port, 0 for a free one (default: %(default)s)"
    )
    parser.add_argument(
        "--store",
        default=None,
        help="persistent store root (responses, solves, certificates); "
        "defaults to no persistence",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="engine worker processes; 1 runs one in-process engine (default: %(default)s)",
    )
    options = parser.parse_args(argv)

    server = SynthesisServer(
        host=options.host,
        port=options.port,
        store=options.store,
        workers=options.workers,
    )

    async def run() -> None:
        await server.start()
        store_note = f", store={server.engine.store.root}" if server.engine.store else ""
        print(
            f"repro.server listening on {server.url} "
            f"(workers={server.engine.workers}{store_note})"
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
