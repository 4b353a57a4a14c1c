"""What run_experiment does when a forked worker, or its own share, fails.

Each case runs in a fresh interpreter under a timeout, so a run that hangs fails its
test instead of stalling the suite. At --jobs W the trial of index i runs in worker
i mod W; worker 0 is the calling process itself.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "prop_default.json"

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
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", PRELUDE + code, str(CONFIG)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": path}, start_new_session=True) as proc:
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
    assert isinstance(exc.__cause__, ChildProcessError), repr(exc.__cause__)
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
    except ChildProcessError as exc:
        print(exc)
    print(no_child_left())
''')
    assert done.returncode == 0, done.stderr
    # a signal's wait status is its number; an exit code e reads e << 8
    assert done.stdout == (f"worker 1 ended without its trials, wait status {9}\nTrue\n"
                           f"worker 1 ended without its trials, wait status {1 << 8}\nTrue\n")


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
