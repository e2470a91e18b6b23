"""Exact integer helpers: primality, factorization, divisors, and
`_in_two`, the two-process split of the census loops and the p = 2 log
fill of `gf`: each caller passes its whole list or range, and `_in_two`
cuts it in two.

Everything here is deterministic.  Miller-Rabin uses a fixed witness set
that is provably correct for all n < 3.3 * 10^24, far beyond any integer
this package factors (group orders up to ~2^64).
"""

import marshal
import os
import signal
from functools import lru_cache
from math import gcd

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False  # 0, 1 and negative n
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # Brent's cycle variant; n is odd and composite (`factorize` divides
    # out 2 first)
    seed = 1
    while True:
        seed += 1
        y, c, m = seed, seed, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple:
    """Prime factorization as a sorted tuple of (prime, exponent) pairs."""
    if n <= 1:
        return ()
    out = {}
    stack = [n]
    # every m pushed is > 1: m // p for a composite m with a trial divisor
    # p, or a proper factor from Pollard's rho
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        for p in (2, 3, 5, 7, 11, 13):
            if m % p == 0:
                out[p] = out.get(p, 0) + 1
                stack.append(m // p)
                break
        else:
            d = _pollard_rho(m)
            stack.append(d)
            stack.append(m // d)
    return tuple(sorted(out.items()))


def prime_divisors(n: int) -> list:
    return [p for p, _ in factorize(n)]


def divisors(n: int) -> list:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return sorted(ds)


def is_prime_power(n: int):
    """Return (p, k) with n = p^k, or None."""
    f = factorize(n)
    if len(f) != 1:
        return None
    return f[0]


def _in_two(fn, items, *rest):
    """[fn(items[:h], *rest), fn(items[h:], *rest)] for h = len(items) // 2,
    with the upper half computed in a forked child while this process
    computes the lower one.  The split both census loops
    (`action.family_census`, `pointwise_incidence`) and the p = 2 log fill
    above `gf.SPLIT_LIMIT` elements (`gf._fill_log`) use;
    the items may be a list or a range.  The log fill's fn returns None
    and writes a shared map, so its child's half reaches this process
    through the shared pages, not the pipe.

    The child sends its result (ints, bools, lists and tuples) back through
    a pipe with `marshal` and always leaves by `os._exit`, so it flushes no
    inherited stdio buffer and runs no exit handler.  The child is always
    reaped, and killed first if fn(*first) raises.  If the child fails in
    any way, this process computes fn(*second) itself, so results and
    exceptions are those of the serial calls, the lower half's error
    first.  Without `os.fork` (or if the fork fails) both calls run here.
    """
    h = len(items) // 2
    first, second = (items[:h], *rest), (items[h:], *rest)
    if not hasattr(os, "fork"):
        return [fn(*first), fn(*second)]
    return _forked_in_two(fn, first, second)


def _forked_in_two(fn, first, second):
    """`_in_two` where `os.fork` exists."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return [fn(*first), fn(*second)]
    if pid == 0:
        status = 1
        try:
            os.close(r)
            data = memoryview(marshal.dumps(fn(*second)))
            while data:
                data = data[os.write(w, data):]
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    try:
        with open(r, "rb") as pipe:
            lower = fn(*first)
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    if status == 0:
        try:
            return [lower, marshal.loads(data)]
        except (EOFError, ValueError):  # a short or garbled result
            pass
    return [lower, fn(*second)]
