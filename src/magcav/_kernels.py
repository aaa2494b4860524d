"""Hot numeric kernels: transmission-map synthesis and field-map cells.

Transmission-map synthesis (a small complex linear solve per grid point)
has a numba ``@njit`` implementation and an independent vectorized numpy
one; the compiled path is used when numba imports, and setting the
environment variable ``MAGCAV_DISABLE_NUMBA=1`` (checked once at import)
forces the numpy path.

Midplane field-map construction (subsampled quadrature cells along the
post and wall circles) has one numpy path, ``field_cells``.  It shares
the masks, the subsample points and each post's field between all the
current-sign rows it is given, so the dark and bright modes of one
geometry cost one pass.  Its scalar reference lives in the test oracles.
"""

from __future__ import annotations

import os

import numpy as np

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None
    HAVE_NUMBA = False

USE_NUMBA = HAVE_NUMBA and os.environ.get("MAGCAV_DISABLE_NUMBA", "0").lower() not in (
    "1",
    "true",
    "yes",
)

# Subsamples per axis for cells cut by a post or the outer wall; 8x8 keeps
# the quadrature second-order despite the 1/rho field at the post surface.
SUBSAMPLE = 8

__all__ = [
    "HAVE_NUMBA",
    "USE_NUMBA",
    "SUBSAMPLE",
    "line_current_H",
    "response_map",
    "response_map_numpy",
    "response_map_numba",
    "field_cells",
]


def _line_term(x, y, px, py, current):
    """In-plane H (A/m) of one infinite line current at points (x, y).

    The line carries ``current`` along +z at (px, py); its azimuthal field
    is current/(2*pi*rho).  Returns new arrays (Hx, Hy, r2), r2 being the
    squared distance to the line; H is 0 where r2 == 0.
    """
    dx = x - px
    dy = y - py
    r2 = dx * dx
    r2 += dy * dy
    pref = (2.0 * np.pi) * r2
    np.divide(current, pref, out=pref, where=r2 > 0.0)
    hx = np.multiply(pref, dy, out=dy)
    np.negative(hx, out=hx)
    hy = np.multiply(pref, dx, out=dx)
    return hx, hy, r2


def line_current_H(
    points: np.ndarray,
    posts: np.ndarray,
    signs: np.ndarray,
    current: float = 1.0,
    r_post: float = 0.0,
) -> np.ndarray:
    """In-plane H (A/m) of signed infinite line currents at given points.

    Each post carries ``signs[p]*current`` along +z at ``posts[p]``; the
    azimuthal field I/(2*pi*rho) is superposed.  Points within ``r_post``
    of any post center get H = 0 (perfect-conductor interior).

    Parameters
    ----------
    points : (..., 2) array of x, y in m.
    posts : (npost, 2) array of post centers in m.
    signs : (npost,) array of current signs.

    Returns
    -------
    (..., 2) array of (Hx, Hy).
    """
    pts = np.asarray(points, dtype=float)
    out = np.zeros(pts.shape)
    inside = np.zeros(pts.shape[:-1], dtype=bool)
    for (px, py), s in zip(np.asarray(posts, dtype=float), np.asarray(signs, dtype=float)):
        hx, hy, r2 = _line_term(pts[..., 0], pts[..., 1], px, py, s * current)
        inside |= r2 < r_post * r_post
        out[..., 0] += hx
        out[..., 1] += hy
    out[inside] = 0.0
    return out


# ---------------------------------------------------------------------------
# Transmission response: out[b, k] = amp * |(A^-1 e_drive)_drive| with
# A = i*(M(B_b) - f_k*I) + diag(linewidth)/2.


def response_map_numpy(
    freqs: np.ndarray,
    half_widths: np.ndarray,
    half_couplings: np.ndarray,
    drive: int,
    f_axis: np.ndarray,
    amplitude: float,
) -> np.ndarray:
    """Pure-numpy batched solve, one frequency-axis batch per field step."""
    freqs = np.asarray(freqs, dtype=float)
    f_axis = np.asarray(f_axis, dtype=float)
    nB, n = freqs.shape
    nf = f_axis.size
    offdiag = 1j * np.asarray(half_couplings, dtype=float)
    rhs = np.zeros((n, 1), dtype=complex)
    rhs[drive, 0] = 1.0
    rhs = np.broadcast_to(rhs, (nf, n, 1))
    idx = np.arange(n)
    out = np.empty((nB, nf))
    for b in range(nB):
        A = np.broadcast_to(offdiag, (nf, n, n)).copy()
        A[:, idx, idx] = half_widths + 1j * (freqs[b] - f_axis[:, None])
        try:
            sol = np.linalg.solve(A, rhs)
            out[b] = amplitude * np.abs(sol[:, drive, 0])
        except np.linalg.LinAlgError:
            # a lossless mode hit exact resonance; that point transmits 0
            for k in range(nf):
                try:
                    out[b, k] = amplitude * abs(np.linalg.solve(A[k], rhs[k])[drive, 0])
                except np.linalg.LinAlgError:
                    out[b, k] = 0.0
    return out


def _response_map_serial(freqs, half_widths, half_couplings, drive, f_axis, amplitude, out):
    """Gaussian elimination with partial pivoting per grid point."""
    nB, n = freqs.shape
    nf = f_axis.shape[0]
    A = np.empty((n, n), dtype=np.complex128)
    x = np.empty(n, dtype=np.complex128)
    for b in range(nB):
        for k in range(nf):
            f = f_axis[k]
            for i in range(n):
                for j in range(n):
                    A[i, j] = 1j * half_couplings[i, j]
                A[i, i] = half_widths[i] + 1j * (freqs[b, i] - f)
                x[i] = 0.0
            x[drive] = 1.0
            singular = False
            for col in range(n):
                piv = col
                best = abs(A[col, col])
                for r in range(col + 1, n):
                    v = abs(A[r, col])
                    if v > best:
                        best = v
                        piv = r
                if best == 0.0:
                    singular = True
                    break
                if piv != col:
                    for c in range(col, n):
                        tmp = A[col, c]
                        A[col, c] = A[piv, c]
                        A[piv, c] = tmp
                    tmp = x[col]
                    x[col] = x[piv]
                    x[piv] = tmp
                for r in range(col + 1, n):
                    m = A[r, col] / A[col, col]
                    if m != 0.0:
                        for c in range(col + 1, n):
                            A[r, c] -= m * A[col, c]
                        x[r] -= m * x[col]
            if singular:
                out[b, k] = 0.0
                continue
            for col in range(n - 1, -1, -1):
                acc = x[col]
                for c in range(col + 1, n):
                    acc -= A[col, c] * x[c]
                x[col] = acc / A[col, col]
            out[b, k] = amplitude * abs(x[drive])


if HAVE_NUMBA:
    _response_map_compiled = numba.njit(cache=True)(_response_map_serial)

    def response_map_numba(freqs, half_widths, half_couplings, drive, f_axis, amplitude):
        freqs = np.ascontiguousarray(freqs, dtype=np.float64)
        f_axis = np.ascontiguousarray(f_axis, dtype=np.float64)
        out = np.empty((freqs.shape[0], f_axis.size))
        _response_map_compiled(
            freqs,
            np.ascontiguousarray(half_widths, dtype=np.float64),
            np.ascontiguousarray(half_couplings, dtype=np.float64),
            drive,
            f_axis,
            amplitude,
            out,
        )
        return out

else:  # pragma: no cover
    response_map_numba = None


def response_map(freqs, half_widths, half_couplings, drive, f_axis, amplitude):
    """Dispatch to the compiled kernel unless disabled by environment."""
    if USE_NUMBA:
        return response_map_numba(freqs, half_widths, half_couplings, drive, f_axis, amplitude)
    return response_map_numpy(freqs, half_widths, half_couplings, drive, f_axis, amplitude)


# ---------------------------------------------------------------------------
# Field-map cells.  The integration domain is the cavity disk minus the post
# disks.  Cells fully inside the domain take the center-point field; cells
# cut by a circle are subsampled so the stored cell energy is the mean of
# |H|^2 over the covered fraction.


def _in_domain(x, y, post_r2, r_post, r_cav):
    """True where (x, y) lies inside the wall and outside every post.

    ``post_r2`` yields the squared distances of the points to each post.
    """
    ok = x * x + y * y <= r_cav * r_cav
    for r2 in post_r2:
        ok &= r2 >= r_post * r_post
    return ok


def _post_fields(x, y, posts, current, r_post, r_cav):
    """Each post's (Hx, Hy) at (x, y) when it carries +current, and the domain mask."""
    fields, r2s = [], []
    for px, py in posts:
        hx, hy, r2 = _line_term(x, y, px, py, current)
        fields.append((hx, hy))
        r2s.append(r2)
    return fields, _in_domain(x, y, r2s, r_post, r_cav)


def _signed_sum(signs, fields):
    """(Hx, Hy) of the posts with the given signs, summed in post order.

    Sums start from +0, as in ``line_current_H``, so a field that is zero
    comes out as +0.0 whatever the signs of the zero terms.
    """
    Hx = np.zeros_like(fields[0][0])
    Hy = np.zeros_like(fields[0][1])
    for s, (hx, hy) in zip(signs, fields):
        if s > 0.0:
            Hx += hx
            Hy += hy
        elif s < 0.0:
            Hx -= hx
            Hy -= hy
    return Hx, Hy


def field_cells(xc, yc, posts, sign_rows, current, r_post, r_cav, subsample=SUBSAMPLE):
    """Quadrature cells of the midplane field, one set per row of current signs.

    In row ``k`` post ``p`` carries ``sign_rows[k][p] * current`` along +z;
    each sign is -1, 0 or 1.  The cell masks, the subsample points and
    each post's field are computed once and shared by all rows.  Returns
    one ``(Hx, Hy, energy, coverage)`` tuple per row: node-center field
    (0 on nodes outside the domain), cell-mean |H|^2 over the covered
    fraction, and that fraction, which depends on the geometry only and
    is the same array in every tuple.
    """
    xc = np.asarray(xc, dtype=float)
    yc = np.asarray(yc, dtype=float)
    posts = np.asarray(posts, dtype=float)
    rows = [tuple(float(s) for s in row) for row in sign_rows]
    if any(len(row) != len(posts) or not set(row) <= {-1.0, 0.0, 1.0} for row in rows):
        raise ValueError("each sign row needs one sign in {-1, 0, 1} per post")
    dx = xc[1] - xc[0]

    # corner lattice: one row/column more than cells
    cx = np.concatenate([xc - 0.5 * dx, [xc[-1] + 0.5 * dx]])
    cy = np.concatenate([yc - 0.5 * dx, [yc[-1] + 0.5 * dx]])
    CX, CY = np.meshgrid(cx, cy, indexing="ij")
    corner_in = _in_domain(
        CX, CY, ((CX - px) ** 2 + (CY - py) ** 2 for px, py in posts), r_post, r_cav
    )
    del CX, CY
    counts = (
        corner_in[:-1, :-1].astype(int)
        + corner_in[1:, :-1]
        + corner_in[:-1, 1:]
        + corner_in[1:, 1:]
    )

    X, Y = np.meshgrid(xc, yc, indexing="ij")
    node_fields, center_in = _post_fields(X, Y, posts, current, r_post, r_cav)
    del X, Y
    full = counts == 4
    outside = ~center_in
    cut = ~full & ((counts != 0) | center_in)
    coverage = full.astype(float)
    not_full = ~full

    ci, cj = np.nonzero(cut)
    ss = subsample
    offs = (np.arange(ss) + 0.5) * dx / ss - 0.5 * dx
    sx = (xc[ci][:, None] + offs[None, :])[:, :, None]  # (m, ss, 1)
    sy = (yc[cj][:, None] + offs[None, :])[:, None, :]  # (m, 1, ss)
    px_ = np.broadcast_to(sx, (ci.size, ss, ss)).reshape(ci.size, -1)
    py_ = np.broadcast_to(sy, (ci.size, ss, ss)).reshape(ci.size, -1)
    sub_fields, sub_in = _post_fields(px_, py_, posts, current, r_post, r_cav)
    del px_, py_
    cnt = sub_in.sum(axis=1)
    coverage[ci, cj] = cnt / (ss * ss)

    cells = []
    for row in rows:
        Hx, Hy = _signed_sum(row, node_fields)
        Hx[outside] = 0.0
        Hy[outside] = 0.0
        energy = Hx * Hx
        energy += Hy * Hy
        energy[not_full] = 0.0

        e, ey = _signed_sum(row, sub_fields)
        e *= e
        ey *= ey
        e += ey
        del ey
        e *= sub_in
        energy[ci, cj] = np.where(cnt > 0, e.sum(axis=1) / np.maximum(cnt, 1), 0.0)
        cells.append((Hx, Hy, energy, coverage))
    return cells
