"""The hot loops: series convolution, cyclotomic reduction, scaled add.

All of them work on plain Python lists of ints, a packed bigint being
one int.
"""

BACKEND = "pure"


def convolve(a, b):
    """Full Cauchy product of two coefficient lists (len = la+lb-1)."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return []
    out = [0] * (la + lb - 1)
    nonzero_b = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in nonzero_b:
            out[i + j] += ai * bj
    return out


def convolve_trunc(a, b, n):
    """First n coefficients of the Cauchy product.

    A square (b is a) forms each cross product a_i a_j, i < j, once,
    doubles the sums, then adds the diagonal a_i^2.
    """
    out = [0] * n
    if b is a:
        nonzero = [(i, x) for i, x in enumerate(a[:n]) if x]
        for p, (i, ai) in enumerate(nonzero):
            if 2 * i >= n:
                break
            for j, aj in nonzero[p + 1:]:
                k = i + j
                if k >= n:
                    break
                out[k] += ai * aj
        out = [c + c for c in out]
        for i, ai in nonzero:
            k = 2 * i
            if k >= n:
                break
            out[k] += ai * ai
    else:
        nonzero_b = [(j, bj) for j, bj in enumerate(b[:n]) if bj]
        for i, ai in enumerate(a[:n]):
            if not ai:
                continue
            for j, bj in nonzero_b:
                k = i + j
                if k >= n:
                    break
                out[k] += ai * bj
    return out


def cyclo_rem(vec, d, terms):
    """Remainder of vec (coeff list, degree order) modulo a monic poly.

    The divisor is x^d + sum_{(i, p) in terms} p x^i, terms holding its
    nonzero low coefficients once; vec may have any length.  Returns a
    list of length d.
    """
    v = list(vec)
    if len(v) < d:
        return v + [0] * (d - len(v))
    for e in range(len(v) - 1, d - 1, -1):
        c = v[e]
        if c:
            base = e - d
            for i, p in terms:
                v[base + i] -= c * p
        # slot e is now dead; no need to zero it
    return v[:d]


def scaled_add(dst, src, c):
    """dst[i] += c * src[i] in place."""
    if not c:
        return
    for i, s in enumerate(src):
        if s:
            dst[i] += c * s
