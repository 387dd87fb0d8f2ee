"""Checkpoint scheduling and graceful interruption.

:class:`CrawlCheckpointer` is the object a crawl loop talks to: once
per iteration it calls :meth:`CrawlCheckpointer.tick` with a payload
builder, and the checkpointer decides whether to save (every ``every``
iterations), interrupt (shutdown flag set, or the deterministic
``interrupt_at`` test hook reached — final checkpoint written first,
then :class:`CrawlInterrupted` raised), or do nothing.  Disarmed
(``checkpoint=None`` in the crawl loop) the whole feature costs one
``if`` per iteration — the clean path stays byte-identical.

Shutdown flags are plain instances passed explicitly down the call
chain (CLI → backend → ``run_shard`` → checkpointer); there is no
module-level flag, so worker processes and tests never share hidden
state.  :func:`install_signal_handlers` wires SIGINT/SIGTERM to a flag
in the CLI process only.
"""

from __future__ import annotations

import signal
from typing import Callable

from repro.checkpoint.store import CheckpointStore, LoadedCheckpoint


class CrawlInterrupted(RuntimeError):
    """Raised by :meth:`CrawlCheckpointer.tick` after the final
    checkpoint of an interrupted crawl has been written."""

    def __init__(self, step: int, checkpoint_path=None) -> None:
        super().__init__(f"crawl interrupted at step {step}")
        self.step = step
        self.checkpoint_path = checkpoint_path


class ShutdownFlag:
    """A latching one-way flag; ``set()`` is idempotent and safe to
    call from a signal handler (a single attribute store)."""

    __slots__ = ("_is_set",)

    def __init__(self) -> None:
        self._is_set = False

    def set(self) -> None:
        self._is_set = True

    def is_set(self) -> bool:
        return self._is_set


def install_signal_handlers(
    flag: ShutdownFlag, raise_keyboard_interrupt: bool = False
) -> Callable[[], None]:
    """Route SIGINT and SIGTERM to ``flag``; returns an undo function.

    With ``raise_keyboard_interrupt`` the handler also raises
    ``KeyboardInterrupt`` — needed when the main thread is blocked in a
    multiprocessing pool collect rather than a crawl loop that polls
    the flag.
    """

    def _handler(signum, frame):  # pragma: no cover - exercised via CI job
        flag.set()
        if raise_keyboard_interrupt:
            raise KeyboardInterrupt

    previous = {
        signum: signal.signal(signum, _handler)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }

    def _restore() -> None:
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    return _restore


class CrawlCheckpointer:
    """Drives periodic checkpoints and interruption for one crawl.

    Parameters
    ----------
    store:
        Destination :class:`CheckpointStore`.  The last payload saved
        is also kept in memory as ``last_payload``.
    every:
        Save a checkpoint every ``every`` loop iterations (0 disables
        periodic saves; interrupt checkpoints still happen).
    flag:
        Shutdown flag polled at each tick (set by a signal handler).
    interrupt_at:
        Deterministic test hook: behave exactly as if the flag had been
        set when the step counter reaches this value.
    extras:
        Named :class:`~repro.checkpoint.protocol.Checkpointable`
        companions (metrics observer, trace sink) snapshotted into the
        payload's ``"extras"`` map alongside the crawler's own state.
    """

    def __init__(
        self,
        store: CheckpointStore,
        every: int = 0,
        flag: ShutdownFlag | None = None,
        interrupt_at: int | None = None,
    ) -> None:
        self.store = store
        self.every = every
        self.flag = flag
        self.interrupt_at = interrupt_at
        self.extras: dict[str, object] = {}
        self.step = 0
        self.last_payload: dict | None = None
        self.resume_payload: dict | None = None
        self._last_saved_step: int | None = None

    # -- resume ------------------------------------------------------

    def arm_resume(self, loaded: LoadedCheckpoint) -> None:
        """Prime the checkpointer with a previously saved checkpoint;
        the crawl loop restores from ``resume_payload`` and the step
        counter continues where the snapshot was taken."""
        self.resume_payload = loaded.payload
        self.step = loaded.step
        self._last_saved_step = loaded.step

    # -- per-iteration hook ------------------------------------------

    def _build(self, build_payload: Callable[[], dict]) -> dict:
        payload = dict(build_payload())
        payload["step"] = self.step
        if self.extras:
            payload["extras"] = {
                name: component.snapshot_state()
                for name, component in self.extras.items()
            }
        return payload

    def _save(self, payload: dict):
        self.last_payload = payload
        path = self.store.write_checkpoint(payload, step=self.step)
        self._last_saved_step = self.step
        self.store.prune_old(keep=2)
        return path

    def tick(self, build_payload: Callable[[], dict]) -> None:
        """Call once at the top of each crawl-loop iteration.

        ``build_payload`` is only invoked when a save actually happens.
        """
        interrupted = (self.flag is not None and self.flag.is_set()) or (
            self.interrupt_at is not None and self.step >= self.interrupt_at
        )
        if interrupted:
            path = self._save(self._build(build_payload))
            raise CrawlInterrupted(self.step, path)
        if (
            self.every > 0
            and self.step > 0
            and self.step % self.every == 0
            and self.step != self._last_saved_step
        ):
            self._save(self._build(build_payload))
        self.step += 1
