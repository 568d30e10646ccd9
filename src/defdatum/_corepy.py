"""Dense univariate polynomial kernels over the prime field F_p.

Polynomials are little-endian lists of ints in [0, p) with no trailing
zeros; the zero polynomial is the empty list.  algebra uses them to find
canonical moduli, to build the tables of small fields and for the
arithmetic of fields above its table cap.
"""


def trim(a):
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    del a[n:]
    return a


def add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    c = list(a)
    for i in range(len(b)):
        c[i] = (c[i] + b[i]) % p
    return trim(c)


def neg(a, p):
    return [(-x) % p for x in a]


def sub(a, b, p):
    return add(a, neg(b, p), p)


def mul(a, b, p):
    if not a or not b:
        return []
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                c[i + j] = (c[i + j] + x * y) % p
    return c


def divmod_(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db, da = len(b) - 1, len(a) - 1
    if da < db:
        return [], trim(r)
    inv = pow(b[db], p - 2, p)
    q = [0] * (da - db + 1)
    for i in range(da - db, -1, -1):
        c = (r[i + db] * inv) % p
        if c:
            q[i] = c
            for j in range(db + 1):
                r[i + j] = (r[i + j] - c * b[j]) % p
    return trim(q), trim(r)


def gcd_(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, divmod_(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(x * inv) % p for x in a]
    return a


def powmod(a, e, mod, p):
    result = [1]
    base = divmod_(a, mod, p)[1]
    while e:
        if e & 1:
            result = divmod_(mul(result, base, p), mod, p)[1]
        base = divmod_(mul(base, base, p), mod, p)[1]
        e >>= 1
    return result
