"""Test threads defined by their ``chunks()`` generator alone."""

from __future__ import annotations

from typing import Iterator

from repro.engine import AccessChunk
from repro.engine.thread import SimThread, ThreadContext


class GeneratorThread(SimThread):
    """A test thread whose :meth:`fill_block` replays :meth:`chunks` one
    chunk at a time, so the scheduler stages exactly the reference
    stream. An empty chunk ends the stream, as it does for the
    chunk-at-a-time reference."""

    def fill_block(self, writer) -> None:
        gen = getattr(self, "_fill_gen", None)
        if gen is None:
            gen = self._fill_gen = self.chunks()
        while writer.free_chunks > 0:
            chunk = next(gen, None)
            if chunk is None or len(chunk) == 0:
                self._fill_gen = iter(())
                return
            writer.push(
                chunk.lines,
                is_write=chunk.is_write,
                ops_per_access=chunk.ops_per_access,
                stream_id=chunk.stream_id,
                serialize=chunk.serialize,
                extra_ns=chunk.extra_ns,
                prefetchable=chunk.prefetchable,
            )


class FixedThread(GeneratorThread):
    """Yields ``n_chunks`` chunks of ``size`` accesses (forever when
    ``n_chunks`` is None) with ``ops`` compute per access."""

    def __init__(self, n_chunks=None, size=8, ops=1, name="fixed"):
        self.n_chunks = n_chunks
        self.size = size
        self.ops = ops
        self.name = name
        self.base = 0

    def start(self, ctx: ThreadContext) -> None:
        buf = ctx.addrspace.alloc(64 * self.size * 4, elem_bytes=4)
        self.base = buf.base_line

    def chunks(self) -> Iterator[AccessChunk]:
        i = 0
        while self.n_chunks is None or i < self.n_chunks:
            lines = [self.base + (j % 4) for j in range(self.size)]
            yield AccessChunk(lines=lines, ops_per_access=self.ops)
            i += 1
