"""CLI tests."""

import json

import pytest

from repro.cli import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "purchase100" in out
    assert "dinar" in out


def test_run_command_prints_metrics(capsys, tmp_path):
    out_path = tmp_path / "summary.json"
    code = main([
        "run", "--dataset", "purchase100", "--defense", "none",
        "--rounds", "1", "--clients", "2", "--local-epochs", "1",
        "--samples", "600", "--out", str(out_path),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "attack AUC" in printed
    summary = json.loads(out_path.read_text())
    assert summary["dataset"] == "purchase100"


def test_run_rejects_unknown_dataset():
    with pytest.raises(SystemExit):
        main(["run", "--dataset", "imagenet"])


def test_run_rejects_unknown_defense():
    with pytest.raises(SystemExit):
        main(["run", "--dataset", "cifar10", "--defense", "magic"])


@pytest.mark.parametrize("flag, field", [
    ("--rounds", "rounds"), ("--clients", "num_clients"),
    ("--local-epochs", "local_epochs"), ("--lr", "lr"),
])
def test_run_rejects_zero_instead_of_defaulting(flag, field):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        main(["run", "--dataset", "purchase100", flag, "0"])
