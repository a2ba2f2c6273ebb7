"""The ``repro serve run`` / ``repro serve loadgen`` CLI surface."""

import re
import socket
import threading
import time

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture()
def release_file(tmp_path):
    path = tmp_path / "release.npz"
    np.savez(path, values=np.random.default_rng(0).random((6, 6, 10)))
    return path


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_for_port(port: int, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.2):
                return
        except OSError:
            time.sleep(0.02)
    raise AssertionError(f"server on port {port} never came up")


class TestServeCli:
    def test_run_and_loadgen_round_trip(self, release_file, capsys):
        port = _free_port()
        codes = {}

        def serve():
            # 12 loadgen requests + 1 shape fetch = 13, then self-stop.
            codes["serve"] = main([
                "serve", "run",
                "--release", f"r={release_file}",
                "--port", str(port),
                "--max-requests", "13",
            ])

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            _wait_for_port(port)
            code = main([
                "serve", "loadgen",
                "--port", str(port), "--release", "r",
                "--requests", "12", "--connections", "3",
                "--queries", "5", "--seed", "1",
            ])
        finally:
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert code == 0
        assert codes["serve"] == 0
        output = capsys.readouterr().out
        assert re.search(r"serving 1 release\(s\) on http://127\.0\.0\.1", output)
        assert "served 13 request(s)" in output
        assert "requests_per_second" in output
        assert "p99_ms" in output

    def test_batch_window_flag_is_gone(self):
        # The bad release spec would fail with exit 1 if the flag parsed,
        # so the server never starts either way.
        with pytest.raises(SystemExit) as exit_info:
            main([
                "serve", "run", "--release", "nodelimiter",
                "--batch-window", "0.001",
            ])
        assert exit_info.value.code == 2

    def test_bad_release_spec_is_an_error(self, capsys):
        code = main(["serve", "run", "--release", "nodelimiter", "--port", "1"])
        assert code == 1
        assert "NAME=PATH" in capsys.readouterr().err

    def test_missing_release_file_is_an_error(self, tmp_path, capsys):
        code = main([
            "serve", "run",
            "--release", f"r={tmp_path / 'ghost.npz'}",
            "--port", str(_free_port()),
            "--max-requests", "1",
        ])
        assert code == 1
