"""The CLI's CSV cells: ``f"{v:.16e}"`` for a float64 array in one numpy pass.

The CLI loads this module with its first table, so importing it stays cheap.
"""

from __future__ import annotations

import functools

import numpy as np

# Exponents e with a power 10**(16 - e) (1e-310..1e345, past both ends of
# float64). The scaling is proved for x87 long double (64-bit mantissa);
# elsewhere (double on macOS arm64 and Windows, quad or double-double on some
# other hosts) every cell is formatted alone.
E_MIN, E_MAX = -329, 326
EXTENDED_SCALING = np.finfo(np.longdouble).nmant == 63


@functools.cache
def tables():
    """Powers ``10**(16 - e)`` and texts ``e±dd[d]`` by ``e``, ``"0000".."9999"``
    as uint32, and the tie margin.

    A power parsed from its decimal string is rounded once, and so is its
    product with ``|x|``: with u = eps/2, ``scaled`` is within (2u + u**2)
    1e17 < 1.01 eps 1e17 of ``|x| 10**(16 - e)`` below 1e17, 0.0109 for eps =
    2**-63. A fraction the margin (0.0125 there) or more from 1/2 rounds as
    the exact value's does.
    """
    eps = float(np.finfo(np.longdouble).eps)
    exponents = range(E_MIN, E_MAX + 1)
    powers = np.array([f"1e{16 - e}" for e in exponents], dtype=np.longdouble)
    texts = np.array([f"e{e:+03d}" for e in exponents], dtype="S5")
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.stack(np.meshgrid(*[digits] * 4, indexing="ij"), axis=-1)
    return powers, texts, quads.reshape(-1, 4).view(np.uint32)[:, 0], 1.15e17 * eps


def format_cells(x: np.ndarray) -> np.ndarray:
    """The text of ``f"{v:.16e}"`` for each ``v`` in ``x``, as ``(n, 24)`` bytes.

    NUL bytes stand where a byte is absent. The 17 digits are ``scaled =
    |x| * 10**(16 - e)`` in long double, rounded to an integer. A cell is
    formatted alone by ``"%.16e" % v`` if it is NaN or infinite, if
    that rounding is too near a tie to be proved (``tables``), or if ``e``
    is still off after one correction; without x87 long double, all are.
    ``±0.0`` is scaled as 1.0, its leading digit set to ``0``.
    """
    text = np.zeros((x.size, 24), np.uint8)
    fast = np.zeros(x.size, bool)
    if EXTENDED_SCALING and x.size:
        powers, exp_texts, quads, margin = tables()
        a = np.abs(x)
        fast, zero = a < np.inf, a == 0.0
        a = np.where(fast & ~zero, a, 1.0)
        idx = np.floor(np.log10(a)).astype(np.intp) - E_MIN  # e, estimated
        la = a.astype(np.longdouble)
        scaled = la * powers[idx]
        whole = scaled.astype(np.int64)  # the floor, exactly
        high, low = whole >= 10**17, whole < 10**16
        if high.any() or low.any():
            idx += high
            idx -= low
            scaled = la * powers[idx]
            whole = scaled.astype(np.int64)
        frac = (scaled - whole).astype(float)
        r = whole + (frac > 0.5)
        fast &= (np.abs(frac - 0.5) >= margin) & (r >= 10**16) & (r < 10**17)
        parts = np.stack([r // 10**16, r // 10**12, r // 10**8, r // 10**4, r], axis=1)
        text[:, 0] = np.signbit(x) * ord("-")
        text[:, 1] = parts[:, 0] + ord("0") - zero
        text[:, 2] = ord(".")
        text[:, 3:19] = quads[parts[:, 1:] - 10000 * parts[:, :-1]].view(np.uint8)
        text[:, 19:] = exp_texts[idx].view(np.uint8).reshape(-1, 5)
    slow = np.flatnonzero(~fast)
    if slow.size:
        per_cell = np.array(["%.16e" % v for v in x[slow].tolist()], dtype="S24")
        text[slow] = per_cell.view(np.uint8).reshape(-1, 24)
    return text
