"""The service's CLI surface: ``serve`` and ``chaos service``.

The long-running path (a full chaos storm) has its own coverage via the library entry points; here the focus is
the command-line contract — clean ``error:`` lines, exit codes, and the
signal-driven drain of ``repro serve``.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.cli import main

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    env["PYTHONUNBUFFERED"] = "1"
    return env


def test_serve_bind_conflict_is_a_clean_error(capsys):
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    port = blocker.getsockname()[1]
    try:
        assert main(["serve", "--port", str(port)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot bind")
        assert str(port) in err
    finally:
        blocker.close()


def test_serve_rejects_out_of_range_port(capsys):
    assert main(["serve", "--port", "99999"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "port" in err


def test_serve_drains_cleanly_on_sigint(tmp_path):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--wal-root", str(tmp_path / "wal")],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_env(),
    )
    try:
        banner = process.stdout.readline()
        assert "serving at http://127.0.0.1:" in banner
        assert "SIGINT/SIGTERM drains" in banner
        process.send_signal(signal.SIGINT)
        out, err = process.communicate(timeout=30)
        assert process.returncode == 0, err
        assert "drained and stopped" in out
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


def test_chaos_service_jsonl_path_must_be_writable():
    with pytest.raises(SystemExit, match="cannot write"):
        main(["chaos", "service", "--jsonl", "/nonexistent-dir/x.jsonl"])


@pytest.mark.slow
def test_chaos_service_survives_and_reports(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    assert main(
        ["chaos", "service", "--seed", "11", "--arrivals", "15",
         "--jsonl", str(out)]
    ) == 0
    text = capsys.readouterr().out
    assert "service chaos (seed 11): SURVIVED" in text
    assert "disconnect storm" in text
    report = json.loads(out.read_text().splitlines()[0])
    assert report["survived"] is True
    assert report["failures"] == []
    # Zero acked loss: everything the service 202'd was processed.
    assert report["processed_seq"] >= report["acked_seq"]
