import subprocess
import sys

import pytest

from orderfield.parallel import ENV_THREADS, trial_map, worker_count


def test_pool_size_keeps_the_variable_validation(monkeypatch):
    for bad in ("0", "-3", "two", ""):
        monkeypatch.setenv(ENV_THREADS, bad)
        with pytest.raises(ValueError, match=ENV_THREADS):
            worker_count()


def test_trial_map_merges_in_trial_order(monkeypatch):
    monkeypatch.setenv(ENV_THREADS, "2")
    assert trial_map(lambda i: i * i, 7) == [i * i for i in range(7)]
    assert trial_map(lambda i: i, 0) == []


def test_cli_import_leaves_the_thread_pool_unloaded(cli_env):
    # a serial run never starts a pool, and no command reads CSV, so start-up
    # should pay for neither import
    code = ("import sys, orderfield.cli; "
            "print(sorted({'concurrent.futures', 'csv'} & set(sys.modules)))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=cli_env, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
