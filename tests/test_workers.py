"""What run_experiment does when a forked worker, or its own share, fails, and what
a verify run does when it is signalled.

Each case runs in a fresh interpreter, in a session of its own, under a timeout, so a
run that hangs fails its test instead of stalling the suite. At --jobs W the trial of
index i runs in worker i mod W; worker 0 is the calling process itself.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "prop_default.json"
PYTHONPATH = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

# argv: the config. Keeps the library's trial runner as real and defines no_child_left;
# each case's code follows and sets family.run_proposition_trial to its own runner
PRELUDE = r'''
import os, signal, sys, time
from padicslopes import cli, family

real = family.run_proposition_trial


def no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
'''


def run_case(code: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """The case's run; on a timeout its whole session is killed, forked workers too."""
    argv = [sys.executable, "-c", PRELUDE + code, str(CONFIG)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": PYTHONPATH},
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def test_a_trial_that_raises_in_a_child_is_raised_again_here():
    done = run_case(r'''
def trial(plan, index):
    if index == 3:
        raise LookupError(f"trial {index} has no eigenvalue")
    return real(plan, index)


family.run_proposition_trial = trial
try:
    family.run_experiment(family.read_config(sys.argv[1]), "prop", jobs=2)
except LookupError as exc:
    assert str(exc) == "trial 3 has no eigenvalue", exc
    assert type(exc.__cause__) is RuntimeError, repr(exc.__cause__)
    print(exc.__cause__)
assert no_child_left()
sys.exit(cli.main(["verify-prop", "--config", sys.argv[1], "--jobs", "2",
                   "--output", os.devnull]))
''')
    assert done.returncode == 3, done.stderr
    # the cause holds the child's traceback, down to the frame of trial, which raised
    cause = done.stdout
    assert cause.startswith("worker 1 raised:\nTraceback (most recent call last):\n")
    assert ", in trial\nLookupError: trial 3 has no eigenvalue\n" in cause
    assert cause.endswith("LookupError: trial 3 has no eigenvalue\n\n")
    # cli.main prints the child's traceback, then the one raised here
    err = done.stderr
    assert err.count("LookupError: trial 3 has no eigenvalue\n") == 2
    assert err.index("worker 1 raised:") < err.index("direct cause of the following exception")
    assert err.endswith("LookupError: trial 3 has no eigenvalue\n")


def test_a_child_that_ends_without_its_trials_is_named():
    done = run_case(r'''
def killed(plan, index):
    if index == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return real(plan, index)


def unpicklable(plan, index):
    return (lambda: index) if index == 5 else real(plan, index)


for trial in (killed, unpicklable):
    family.run_proposition_trial = trial
    try:
        family.run_experiment(family.read_config(sys.argv[1]), "prop", jobs=2)
    except RuntimeError as exc:  # not an OSError, which cli.main reads as bad input
        print(type(exc) is RuntimeError, exc)
    print(no_child_left())
family.run_proposition_trial = killed
sys.exit(cli.main(["verify-prop", "--config", sys.argv[1], "--jobs", "2",
                   "--output", os.devnull]))
''')
    # a signal's wait status is its number; an exit code e reads e << 8
    assert done.stdout == (f"True worker 1 ended without its trials, wait status {9}\nTrue\n"
                           f"True worker 1 ended without its trials, wait status {1 << 8}\nTrue\n")
    # cli.main: an internal error, exit 3 with the traceback, not exit 2 (bad input)
    assert done.returncode == 3, done.stderr
    assert done.stderr.endswith("RuntimeError: worker 1 ended without its trials, "
                                "wait status 9\n"), done.stderr


def test_a_raise_in_this_share_does_not_wait_on_a_blocked_child():
    # each child's share pickles to about 260 KB, past a pipe's 64 KiB, so it blocks in its
    # write until the pipe is read or closed; this process's share raises instead of
    # reading it. Were the children reaped before the pipes closed, this would hang
    done = run_case(r'''
def trial(plan, index):
    if index % 3:
        return bytes(8_000)
    if index == 30:
        time.sleep(0.5)  # by now both children have run their shares and block writing
        raise LookupError("trial 30 failed in this process")
    return real(plan, index)


family.run_proposition_trial = trial
start = time.perf_counter()
try:
    family.run_experiment(family.read_config(sys.argv[1]), "prop", jobs=3)
except LookupError as exc:
    print(exc)
print(no_child_left(), time.perf_counter() - start < 10)
''', timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "trial 30 failed in this process\nTrue True\n"


# argv: a config. Runs verify-constancy --jobs 2 on it, and prints the pid of the worker
# it forks, so the test signals the CLI process only once that worker runs its share
SIGNALLED = r'''
import os, sys
from padicslopes import cli

fork = os.fork


def announced_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid


os.fork = announced_fork
sys.exit(cli.main(["verify-constancy", "--config", sys.argv[1], "--jobs", "2",
                   "--output", os.devnull]))
'''


def long_config(tmp_path, trials: int) -> Path:
    """constancy_default.json with its trial count set to trials."""
    config = tmp_path / "long.json"
    doc = json.loads((ROOT / "configs" / "constancy_default.json").read_text())
    config.write_text(json.dumps({**doc, "trials": trials}))
    return config


def signalled_run(tmp_path, signum):
    """(return code, stderr, seconds from the signal until no process of the run is
    left) of verify-constancy --jobs 2 whose CLI process alone gets signum half a second
    after its worker started. The config's shares take several seconds each (60000
    constancy_default trials), so a run that waits for them or leaves its worker running
    holds its session well past the 2 s the tests allow."""
    argv = [sys.executable, "-c", SIGNALLED, str(long_config(tmp_path, 60000))]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": PYTHONPATH},
                          start_new_session=True) as proc:
        try:
            assert proc.stdout.readline().strip().isdigit()  # the worker's pid: it runs
            time.sleep(0.5)
            assert proc.poll() is None
            os.kill(proc.pid, signum)
            signalled = time.perf_counter()
            err = proc.communicate(timeout=30)[1]
            while time.perf_counter() - signalled < 5:
                try:
                    os.killpg(proc.pid, 0)  # any process left in the run's session
                except ProcessLookupError:
                    return proc.returncode, err, time.perf_counter() - signalled
                time.sleep(0.01)
            return proc.returncode, err, float("inf")
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def test_sigterm_to_the_cli_ends_its_workers_and_exits_143(tmp_path):
    # what timeout sends: kill and reap the worker, then exit 128 + 15, no traceback
    code, err, seconds = signalled_run(tmp_path, signal.SIGTERM)
    assert code == 143, err
    assert err == ""
    assert seconds < 2


def test_sigint_to_the_cli_alone_does_not_wait_for_its_workers(tmp_path):
    # Ctrl-C sent to the CLI process only, not its process group: its KeyboardInterrupt
    # kills and reaps the worker instead of waiting for its share
    code, err, seconds = signalled_run(tmp_path, signal.SIGINT)
    assert code == -signal.SIGINT, err
    assert err.rstrip().endswith("KeyboardInterrupt")
    assert seconds < 2


def test_a_sigkilled_cli_leaves_no_worker_blocked_in_its_write(tmp_path):
    # SIGKILL runs no unwinding, so the worker runs its share (2000 trials, well past a
    # pipe's 64 KiB pickled) and writes it. It holds no read end of any pipe, so with its
    # parent gone the write fails on EPIPE and it ends. Reparented, it may stay a zombie
    # until it is reaped, so state Z counts as ended
    if not os.path.isdir("/proc"):
        pytest.skip("reads the worker's state from /proc")
    argv = [sys.executable, "-c", SIGNALLED, str(long_config(tmp_path, 4000))]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": PYTHONPATH},
                          start_new_session=True) as proc:
        try:
            worker = int(proc.stdout.readline())
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)  # the worker keeps the run's stdout open: no communicate
            deadline = time.perf_counter() + 20
            while time.perf_counter() < deadline:
                try:
                    stat = Path(f"/proc/{worker}/stat").read_text()
                except FileNotFoundError:
                    return
                state = stat.rsplit(")", 1)[1].split()[0]
                if state == "Z":
                    return
                time.sleep(0.05)
            pytest.fail(f"worker {worker} still in state {state} 20 s after its parent's SIGKILL")
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
