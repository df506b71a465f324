"""Cost meter tests (Table 3 accounting)."""

from repro.fl.costs import CostMeter, CostReport


def test_client_training_timer():
    meter = CostMeter()
    meter.merge_client_round(0.5)
    meter.merge_client_round(0.25)
    assert meter.report.client_train_seconds == 0.75
    assert meter.report.client_train_rounds == 2


def test_defense_timer_separate_from_training():
    meter = CostMeter()
    meter.merge_client_round(0.5, 0.25)
    assert meter.report.client_train_seconds == 0.5
    assert meter.report.client_defense_seconds == 0.25
    # defense time counts toward the per-round training duration
    assert meter.report.train_seconds_per_round == 0.75


def test_server_aggregation_timer():
    meter = CostMeter()
    meter.merge_server_round(0.25)
    meter.merge_server_round(0.75)
    assert meter.report.aggregate_seconds_per_round == 0.5
    assert meter.report.server_rounds == 2


def test_defense_state_records_peak():
    meter = CostMeter()
    meter.record_defense_state(100)
    meter.record_defense_state(50)
    assert meter.report.defense_state_bytes == 100


def test_empty_report_rates_are_zero():
    report = CostReport()
    assert report.train_seconds_per_round == 0.0
    assert report.aggregate_seconds_per_round == 0.0
