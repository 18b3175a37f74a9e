"""CLI hardening: bad values surface as `error: ...` + exit 1."""

import pytest

from repro.cli import main


def assert_clean_error(capsys, argv, fragment):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert fragment in err
    assert "Traceback" not in err


def test_unknown_figure_name(capsys):
    assert_clean_error(capsys, ["figure", "fig99"], "fig99")


def test_unknown_spectrum_point(capsys):
    assert_clean_error(capsys, ["spectrum", "D9"], "D9")


@pytest.mark.parametrize("value", ["0", "-5"])
def test_nonpositive_arrivals(capsys, value):
    assert_clean_error(
        capsys, ["figure", "fig6", "--arrivals", value], "--arrivals"
    )
    assert_clean_error(capsys, ["demo", "--arrivals", value], "--arrivals")


def test_bad_shard_count(capsys):
    assert_clean_error(capsys, ["demo", "--shards", "0"], "shard count")
    assert_clean_error(
        capsys, ["figure", "fig6", "--shards", "-1"], "shard count"
    )


def test_bad_parallel_backend(capsys):
    assert_clean_error(
        capsys, ["demo", "--parallel-backend", "threads"], "backend"
    )


def test_chaos_flags_validated_before_running(capsys):
    assert_clean_error(capsys, ["chaos", "demo", "--shards", "0"], "shard")
    assert_clean_error(
        capsys, ["chaos", "demo", "--arrivals", "-1"], "--arrivals"
    )


def test_sharded_demo_runs_clean(capsys):
    assert (
        main(["demo", "--arrivals", "500", "--shards", "2"]) == 0
    )
    out = capsys.readouterr().out
    assert "2 shards" in out
    assert "A-Caching" in out


def test_sharded_chaos_runs_clean(capsys):
    assert (
        main(["chaos", "demo", "--arrivals", "600", "--shards", "2"]) == 0
    )
    out = capsys.readouterr().out
    assert "2 shards (serial)" in out
