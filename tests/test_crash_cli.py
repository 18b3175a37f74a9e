"""The crash-chaos CLI surface: ``chaos --crash`` and ``recover``.

End-to-end through ``repro.cli.main`` with small arrival counts, pinning
the RECOVERED verdict, the ``--no-recover`` + ``recover DIR`` round
trip, the dead-letter dump, and clean error mapping.
"""

import pytest

from repro.cli import main
from repro.errors import RecoveryError
from repro.faults.crashes import (
    read_manifest,
    recover_and_verify,
    run_crash_chaos,
)

CRASH_ARGS = [
    "chaos",
    "demo",
    "--crash",
    "at_event",
    "--arrivals",
    "1000",
    "--seed",
    "3",
    "--checkpoint-interval",
    "150",
]


@pytest.mark.parametrize("kind", ["at_event", "torn_tail", "during_checkpoint"])
def test_crash_chaos_reports_recovered(kind, capsys):
    args = list(CRASH_ARGS)
    args[args.index("at_event")] = kind
    assert main(args) == 0
    out = capsys.readouterr().out
    assert f"crash chaos demo — kind {kind}" in out
    assert "verdict: RECOVERED" in out


def test_crash_chaos_rebuild_mode(capsys):
    assert main(CRASH_ARGS + ["--cache-mode", "rebuild"]) == 0
    out = capsys.readouterr().out
    assert "mode=rebuild" in out
    assert "verdict: RECOVERED" in out


def test_crash_chaos_sharded(capsys):
    assert main(CRASH_ARGS + ["--shards", "2"]) == 0
    out = capsys.readouterr().out
    assert "shards" in out
    assert "verdict: RECOVERED" in out


def test_no_recover_then_recover_round_trip(tmp_path, capsys):
    wal_dir = str(tmp_path / "journal")
    assert (
        main(CRASH_ARGS + ["--wal-dir", wal_dir, "--no-recover"]) == 0
    )
    out = capsys.readouterr().out
    assert "left crashed (--no-recover)" in out
    manifest = read_manifest(wal_dir)
    assert manifest["experiment"] == "demo"
    # Second process: repro recover DIR picks the journal back up.
    assert main(["recover", wal_dir]) == 0
    out = capsys.readouterr().out
    assert "verdict: RECOVERED" in out
    # Recovery is idempotent — a second invocation verifies again.
    assert main(["recover", wal_dir]) == 0
    assert "verdict: RECOVERED" in capsys.readouterr().out


def test_recover_without_manifest_is_a_clean_error(tmp_path, capsys):
    assert main(["recover", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "manifest" in err


def test_crash_chaos_bad_kind_is_a_clean_error(capsys):
    assert main(["chaos", "demo", "--crash", "meteor"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "meteor" in err


def test_no_recover_requires_wal_dir(capsys):
    assert main(["chaos", "demo", "--crash", "at_event", "--no-recover"]) == 1
    assert "wal-dir" in capsys.readouterr().err.replace("_", "-")


def test_dump_dead_letters_lists_quarantined_updates(capsys):
    assert (
        main(
            [
                "chaos",
                "demo",
                "--arrivals",
                "1200",
                "--seed",
                "3",
                "--dump-dead-letters",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "dead letters (" in out
    assert "seq=" in out and "rid=" in out


def test_run_crash_chaos_is_deterministic(tmp_path):
    one = run_crash_chaos("demo", seed=7, arrivals=900, checkpoint_interval=150)
    two = run_crash_chaos("demo", seed=7, arrivals=900, checkpoint_interval=150)
    assert one.verified and two.verified
    assert one.kill_at == two.kill_at
    assert one.checkpoint_seq == two.checkpoint_seq
    assert one.replayed == two.replayed


def test_recover_and_verify_direct(tmp_path):
    wal_dir = str(tmp_path / "j")
    report = run_crash_chaos(
        "demo",
        seed=5,
        arrivals=900,
        checkpoint_interval=150,
        wal_dir=wal_dir,
        recover=False,
    )
    assert not report.recovered
    verified = recover_and_verify(wal_dir)
    assert verified.verified
    assert verified.experiment == report.experiment
    assert verified.seed == report.seed


def test_read_manifest_missing_raises():
    with pytest.raises(RecoveryError):
        read_manifest("/nonexistent/journal")
