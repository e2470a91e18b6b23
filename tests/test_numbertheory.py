import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from maxcurves.numbertheory import (_in_two, divisors, factorize, is_prime,
                                    is_prime_power)

random.seed(900)


def test_small_primes():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59]


def test_factorize_round_trip():
    for _ in range(200):
        n = random.randrange(2, 10**9)
        f = factorize(n)
        prod = 1
        for p, e in f:
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_group_order_sizes():
    # the orders that appear in element-order computations
    n = 2**54 - 1
    f = dict(factorize(n))
    assert all(is_prime(p) for p in f)
    prod = 1
    for p, e in f.items():
        prod *= p**e
    assert prod == n
    assert f[3] == 4  # 3-part used by cube-root extraction in F_{2^54}


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1023) == [1, 3, 11, 31, 33, 93, 341, 1023]


def test_is_prime_power():
    assert is_prime_power(32) == (2, 5)
    assert is_prime_power(729) == (3, 6)
    assert is_prime_power(1) is None
    assert is_prime_power(12) is None


# -- the two-process split of the scans -----------------------------------------


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _bounded(items):
    if items and max(items) >= 100:
        raise ValueError(f"{max(items)} is past the bound 100")
    return list(items)


def _each(items, fn):
    return [fn(n) for n in items]


def test_in_two_equals_the_serial_calls():
    for fn, items, rest in [(_each, [360, 2**10 * 3**5], (divisors,)),
                            (_each, [2**54 - 1, 10**12 + 39], (factorize,)),
                            # a result larger than a pipe's buffer
                            (list, range(2 * 10**5), ())]:
        h = len(items) // 2
        assert _in_two(fn, items, *rest) == [fn(items[:h], *rest),
                                             fn(items[h:], *rest)]
    _no_child_left()


def test_in_two_cuts_at_half_the_length_rounded_down():
    # 5 items: 2 below, 3 above; 1 item: an empty lower half
    assert _in_two(_bounded, [3, 1, 4, 1, 5]) == [[3, 1], [4, 1, 5]]
    assert _in_two(_bounded, range(5)) == [[0, 1], [2, 3, 4]]
    assert _in_two(_bounded, [7]) == [[], [7]]
    _no_child_left()


def test_in_two_raises_the_serial_error_of_the_upper_half():
    with pytest.raises(ValueError, match="^199 is past the bound 100$"):
        _in_two(_bounded, range(200))
    _no_child_left()


def test_in_two_raises_the_lower_half_error_first():
    with pytest.raises(ValueError, match="^149 is past the bound 100$"):
        _in_two(_bounded, range(300))
    _no_child_left()


@pytest.mark.parametrize("failure", ["exit 3", "killed"])
def test_in_two_recomputes_the_half_of_a_failed_child(failure):
    parent = os.getpid()

    def half(items):
        if os.getpid() != parent:
            if failure == "exit 3":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        return list(items)

    assert _in_two(half, range(9)) == [[0, 1, 2, 3], [4, 5, 6, 7, 8]]
    _no_child_left()


def test_in_two_runs_both_halves_here_without_fork(monkeypatch):
    parent = os.getpid()

    def half(items):
        assert os.getpid() == parent
        return list(items)

    monkeypatch.delattr(os, "fork")
    assert _in_two(half, range(4)) == [[0, 1], [2, 3]]


def test_in_two_runs_both_halves_here_if_the_fork_fails(monkeypatch):
    def no_fork():
        raise BlockingIOError("no process left")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _in_two(_bounded, range(4)) == [[0, 1], [2, 3]]


def test_the_forked_scan_writes_no_inherited_output_twice():
    # stdout to a pipe is block-buffered, so the line is still unflushed
    # when primovalore_scan forks; a child that flushed it would print it
    # a second time
    code = ("import sys\n"
            "sys.stdout.write('before the scan\\n')\n"
            "from maxcurves.catalog import primovalore_scan\n"
            "assert primovalore_scan(10**4) == [1, 2, 3, 10]\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True, timeout=120)
    assert done.stdout == "before the scan\n"
