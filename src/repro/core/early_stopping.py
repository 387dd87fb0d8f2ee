"""Early-stopping monitor (Sec. 4.8).

Every ν iterations the monitor computes the target-discovery slope
σ = (y_t − y_{t−ν}) / ν and folds it into an exponential moving average
μ ← γ·σ + (1−γ)·μ.  When μ stays below a threshold ε for κ consecutive
windows (κ·ν iterations), the crawl stops: the site is considered
exhausted.  The paper uses ν = 1000, ε = 0.2, γ = 0.05, κ = 15 on
million-page sites; on scaled-down sites the window ν should scale with
the site (:func:`scaled_early_stopping`, applied by the campaign worker).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.events import EarlyStopTriggered
from repro.obs.observer import NULL_OBSERVER, Observer


def scaled_early_stopping(n_available: int) -> dict[str, float | int]:
    """Early-stopping parameters scaled to site size.

    The paper's ν = 1000 / κ = 15 assume million-page budgets; on sites
    of a few thousand pages the slope window scales with the site so the
    κ·ν warm-up does not exceed the whole crawl (the paper itself notes
    that small sites finish before κ·ν iterations, Sec. 4.8).
    """
    window = max(30, n_available // 40)
    return {
        "es_window": window,
        "es_threshold": 0.2,
        # The paper's γ = 0.05 suits ν = 1000 windows on million-page
        # crawls; with windows scaled ~25× smaller the EMA must also
        # forget ~25× faster to represent the same crawl fraction.
        "es_decay": 0.3,
        "es_patience": 6,
    }


@dataclass
class EarlyStoppingMonitor:
    """Sliding-slope EMA stopper."""

    window: int = 1000          # ν
    threshold: float = 0.2      # ε
    decay: float = 0.05         # γ
    patience: int = 15          # κ
    #: instrumentation sink (repro.obs); the shared no-op by default
    observer: Observer = NULL_OBSERVER
    #: do not monitor before the first target is found — on scaled-down
    #: deep sites the crawler has a target-free descent phase that the
    #: paper's million-page crawls do not exhibit; stopping during it
    #: would abort a crawl that has not started discovering yet.
    arm_after_first_target: bool = True
    #: count low windows only after the EMA has once reached the
    #: threshold — "discovery must have started before it can end".
    #: Prevents cutting bursty crawls between early bursts; sites whose
    #: discovery never ramps up simply never early-stop (the paper's
    #: behaviour class ii).
    require_ramp_up: bool = True
    _ramped_up: bool = False

    _last_count: float = 0.0
    _ema: float | None = None
    _consecutive_low: int = 0
    _iterations: int = 0
    triggered_at: int | None = None
    #: history of (iteration, ema) pairs, for the Figure 15 visualisation
    history: list[tuple[int, float]] = field(default_factory=list)

    def observe(self, n_targets: float) -> bool:
        """Feed the current cumulative target count (once per crawl step).

        Returns True when the stopping condition fires.
        """
        if self.triggered_at is not None:
            return True
        if self.arm_after_first_target and n_targets <= 0:
            return False
        self._iterations += 1
        if self._iterations % self.window != 0:
            return False
        slope = (n_targets - self._last_count) / self.window
        self._last_count = n_targets
        if self._ema is None:
            self._ema = slope
        else:
            self._ema = self.decay * slope + (1.0 - self.decay) * self._ema
        self.history.append((self._iterations, self._ema))
        if self._ema >= self.threshold:
            self._ramped_up = True
        if self.require_ramp_up and not self._ramped_up:
            return False
        if self._ema < self.threshold:
            self._consecutive_low += 1
        else:
            self._consecutive_low = 0
        if self._consecutive_low >= self.patience:
            self.triggered_at = self._iterations
            if self.observer.enabled:
                self.observer.on_event(
                    EarlyStopTriggered(
                        step=self._iterations,
                        ema=self._ema,
                        window=self.window,
                        patience=self.patience,
                    )
                )
            return True
        return False

    @property
    def stopped(self) -> bool:
        return self.triggered_at is not None

    # -- checkpointing (repro.checkpoint) --------------------------------

    def snapshot_state(self) -> dict:
        return {
            "ramped_up": self._ramped_up,
            "last_count": self._last_count,
            "ema": self._ema,
            "consecutive_low": self._consecutive_low,
            "iterations": self._iterations,
            "triggered_at": self.triggered_at,
            "history": [[iteration, ema] for iteration, ema in self.history],
        }

    def restore_state(self, state: dict) -> None:
        self._ramped_up = state["ramped_up"]
        self._last_count = state["last_count"]
        self._ema = state["ema"]
        self._consecutive_low = state["consecutive_low"]
        self._iterations = state["iterations"]
        self.triggered_at = state["triggered_at"]
        self.history = [
            (iteration, ema) for iteration, ema in state["history"]
        ]
