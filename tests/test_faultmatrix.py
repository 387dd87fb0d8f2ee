"""Tests for the fault-matrix experiment (recall/cost vs fault rate)."""

from repro.experiments.config import ExperimentConfig
from repro.experiments.faultmatrix import compute_fault_matrix

SCALE = 0.15
CONFIG = ExperimentConfig(scale=SCALE, seeds=(1,))
RATES = (0.0, 0.3)


def _compute():
    return compute_fault_matrix(CONFIG, site="cl", crawler="BFS",
                                rates=RATES, seed=1)


def test_fault_matrix_shape_and_control_column():
    result = _compute()
    assert result.rates == list(RATES)
    assert len(result.recall_pct) == len(RATES)
    # control column: the injector is disarmed (organic 5xx pages can
    # still drive retries, but nothing is ever *injected*)
    assert result.faults_injected[0] == 0
    assert result.recall_pct[0] > 0


def test_fault_matrix_faults_cost_requests():
    result = _compute()
    # at a 30% fault rate the injector must have fired, and the retry
    # stack must have issued extra requests relative to the control
    assert result.faults_injected[1] > 0
    assert result.retries[1] > 0
    assert result.requests[1] > result.requests[0]


def test_fault_matrix_is_deterministic():
    a = _compute()
    b = _compute()
    assert a == b


def test_fault_matrix_render_mentions_every_rate():
    text = _compute().render()
    assert "Fault matrix" in text
    for rate in RATES:
        assert f"rate={rate:g}" in text
    assert "Recall" in text


def test_fault_matrix_registered_as_cli_experiment():
    from repro.__main__ import EXPERIMENTS

    assert "faultmatrix" in EXPERIMENTS
