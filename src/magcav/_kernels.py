"""Hot numeric kernels: transmission S21 and field-map cells.

``s21_rows`` is the one transmission forward model: ``spectra.s21``
calls it with one field row and ``spectra.density_map`` with blocks of
rows.  S21 needs only the driven mode's entry of A^-1; when the
couplings form a tree (the star of magnons on one cavity, the
cavity-R-L chain) that entry is a continued fraction evaluated leaves
first over the whole block, with no linear solve.  Other coupling graphs
take one batched ``np.linalg.solve``.

Midplane field-map construction (subsampled quadrature cells along the
post and wall circles) has one numpy path, ``field_cells``.  It shares
the masks, the subsample points and each post's field between all the
current-sign rows it is given, so the dark and bright modes of one
geometry cost one pass.  Its scalar reference lives in the test oracles.
Every line-current field, on the grid or on a circle, is one post's
unit-current field from ``post_fields`` summed by ``signed_sum``.
"""

from __future__ import annotations

import numpy as np

# Subsamples per axis for cells cut by a post or the outer wall; 8x8 keeps
# the quadrature second-order despite the 1/rho field at the post surface.
SUBSAMPLE = 8

__all__ = [
    "SUBSAMPLE",
    "post_fields",
    "signed_sum",
    "s21_rows",
    "field_cells",
]


# ---------------------------------------------------------------------------
# Transmission: S21 = amplitude * [A^-1]_dd with A = diag(half_widths) +
# i*(M - f*I), M holding the bare mode frequencies on its diagonal and the
# half couplings g/pi/2 off it, and d the driven mode.


def _tree_order(half_couplings, drive):
    """Leaves-first ``(mode, neighbour towards drive, coupling**2)`` triples.

    Returns None unless the nonzero couplings form a tree that reaches
    every mode from ``drive``.
    """
    h = np.asarray(half_couplings, dtype=float)
    n = h.shape[0]
    if np.count_nonzero(np.triu(h, 1)) != n - 1:
        return None
    parent = {drive: None}
    queue = [drive]
    for v in queue:
        for c in np.flatnonzero(h[v]).tolist():
            if c not in parent:
                parent[c] = v
                queue.append(c)
    if len(queue) != n:
        return None
    return [(v, parent[v], h[v, parent[v]] ** 2) for v in reversed(queue[1:])]


def _fraction(d, order, drive, amplitude):
    """amplitude / D_drive, each D_v = d_v + sum of h**2 / D_c over v's children."""
    D = list(d)
    for v, p, h2 in order:
        D[p] = D[p] + h2 / D[v]
    return amplitude / D[drive]


def _fraction_zero_pivots(d, order, drive, amplitude):
    """``_fraction`` where some D is exactly 0 (a lossless subtree on resonance).

    A child with D_c == 0 makes its parent's D infinite, so the parent
    adds 0 to the level above; two such children of one mode, or D == 0
    at the driven mode, make A singular, and the cell gives 0.
    """
    D = list(d)
    n_zero = np.zeros(d.shape, dtype=int)  # children with D exactly 0
    singular = np.zeros(d.shape[1:], dtype=bool)
    for v, p, h2 in order:
        live = n_zero[v] == 0
        zero = live & (D[v] == 0)
        singular |= n_zero[v] > 1
        n_zero[p] += zero
        live &= ~zero
        D[p] = D[p] + np.divide(h2, D[v], out=np.zeros_like(D[v]), where=live)
    ok = (n_zero[drive] == 0) & (D[drive] != 0) & ~singular
    return np.divide(amplitude, D[drive], out=np.zeros_like(D[drive]), where=ok)


def _solve(d, half_couplings, drive, amplitude):
    """amplitude * [A^-1]_dd by one batched LU solve; a singular cell gives 0.

    Singular means rank-deficient by SVD: on an exactly singular A, LU
    often meets a rounding-sized pivot instead of a zero one.
    """
    n = d.shape[0]
    cells = d.reshape(n, -1).T
    A = np.empty((cells.shape[0], n, n), dtype=complex)
    A[:] = 1j * np.asarray(half_couplings, dtype=float)
    idx = np.arange(n)
    A[:, idx, idx] = cells
    full = np.linalg.matrix_rank(A) == n
    rhs = np.zeros((n, 1), dtype=complex)
    rhs[drive, 0] = 1.0
    x = np.zeros(cells.shape[0], dtype=complex)
    x[full] = np.linalg.solve(A[full], np.broadcast_to(rhs, (full.sum(), n, 1)))[:, drive, 0]
    return (amplitude * x).reshape(d.shape[1:])


def s21_rows(freqs, half_widths, half_couplings, drive, f_axis, amplitude):
    """Complex S21 on a block of field rows, ``out[b, k]`` at (freqs[b], f_axis[k]).

    ``freqs`` is (rows, n): the bare mode frequencies of each row;
    ``half_widths`` the n linewidths/2 and ``half_couplings`` the
    symmetric (n, n) g/pi/2, all in Hz.  A tree of couplings is
    eliminated leaves first as a continued fraction towards ``drive``;
    any other coupling graph takes one batched linear solve.  A cell
    where A is singular gives 0.
    """
    freqs = np.asarray(freqs, dtype=float)
    f_axis = np.asarray(f_axis, dtype=float)
    # A's diagonal, one (rows, len(f_axis)) array per mode
    d = np.empty((freqs.shape[1], freqs.shape[0], f_axis.size), dtype=complex)
    d.real = np.asarray(half_widths, dtype=float)[:, None, None]
    np.subtract(freqs.T[:, :, None], f_axis, out=d.imag)
    order = _tree_order(half_couplings, drive)
    if order is None:
        return _solve(d, half_couplings, drive, amplitude)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = _fraction(d, order, drive, amplitude)
    bad = ~np.isfinite(s)
    if bad.any():
        s[bad] = _fraction_zero_pivots(d[:, bad], order, drive, amplitude)
    return s


# ---------------------------------------------------------------------------
# Field-map cells.  The integration domain is the cavity disk minus the post
# disks.  Cells fully inside the domain take the center-point field; cells
# cut by a circle are subsampled so the stored cell energy is the mean of
# |H|^2 over the covered fraction.


def _line_term(x, y, px, py):
    """In-plane H (A/m) at points (x, y) of a unit line current at (px, py).

    The line carries 1 A along +z; its azimuthal field is 1/(2*pi*rho).
    Returns new arrays (Hx, Hy, r2), r2 being the squared distance to the
    line; H is 0 where r2 == 0.
    """
    dx = x - px
    dy = y - py
    r2 = dx * dx
    r2 += dy * dy
    pref = (2.0 * np.pi) * r2
    np.divide(1.0, pref, out=pref, where=r2 > 0.0)
    hx = np.multiply(pref, dy, out=dy)
    np.negative(hx, out=hx)
    hy = np.multiply(pref, dx, out=dx)
    return hx, hy, r2


def post_fields(x, y, posts):
    """Each post's unit-current (Hx, Hy) at (x, y), and the squared distances."""
    fields, r2s = [], []
    for px, py in posts:
        hx, hy, r2 = _line_term(x, y, px, py)
        fields.append((hx, hy))
        r2s.append(r2)
    return fields, r2s


def signed_sum(signs, fields):
    """(Hx, Hy) of the posts with the given current signs, summed in post order.

    Sums start from +0, so a field that is zero comes out as +0.0
    whatever the signs of the zero terms.
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


def _in_domain(x, y, post_r2, r_post, r_cav):
    """True where (x, y) lies inside the wall and outside every post.

    ``post_r2`` yields the squared distances of the points to each post.
    """
    ok = x * x + y * y <= r_cav * r_cav
    for r2 in post_r2:
        ok &= r2 >= r_post * r_post
    return ok


def field_cells(xc, yc, posts, sign_rows, r_post, r_cav):
    """Quadrature cells of the midplane field, one set per row of current signs.

    In row ``k`` post ``p`` carries ``sign_rows[k][p]`` A along +z; each
    sign is -1, 0 or 1.  The cell masks, the subsample points and each
    post's field are computed once and shared by all rows.  Returns one
    ``(Hx, Hy, energy, coverage, excluded)`` tuple per row: node-center
    field (0 on nodes outside the domain), cell-mean |H|^2 over the
    covered fraction, that fraction, and the mask of nodes outside the
    domain; the last two depend on the geometry only and are the same
    arrays in every tuple.
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
    node_fields, node_r2 = post_fields(X, Y, posts)
    center_in = _in_domain(X, Y, node_r2, r_post, r_cav)
    del X, Y, node_r2
    full = counts == 4
    outside = ~center_in
    cut = ~full & ((counts != 0) | center_in)
    coverage = full.astype(float)
    not_full = ~full

    ci, cj = np.nonzero(cut)
    ss = SUBSAMPLE
    offs = (np.arange(ss) + 0.5) * dx / ss - 0.5 * dx
    sx = (xc[ci][:, None] + offs[None, :])[:, :, None]  # (m, ss, 1)
    sy = (yc[cj][:, None] + offs[None, :])[:, None, :]  # (m, 1, ss)
    px_ = np.broadcast_to(sx, (ci.size, ss, ss)).reshape(ci.size, ss * ss)
    py_ = np.broadcast_to(sy, (ci.size, ss, ss)).reshape(ci.size, ss * ss)
    sub_fields, sub_r2 = post_fields(px_, py_, posts)
    sub_in = _in_domain(px_, py_, sub_r2, r_post, r_cav)
    del px_, py_, sub_r2
    cnt = sub_in.sum(axis=1)
    coverage[ci, cj] = cnt / (ss * ss)

    cells = []
    for row in rows:
        Hx, Hy = signed_sum(row, node_fields)
        Hx[outside] = 0.0
        Hy[outside] = 0.0
        energy = Hx * Hx
        energy += Hy * Hy
        energy[not_full] = 0.0

        e, ey = signed_sum(row, sub_fields)
        e *= e
        ey *= ey
        e += ey
        del ey
        e *= sub_in
        energy[ci, cj] = np.where(cnt > 0, e.sum(axis=1) / np.maximum(cnt, 1), 0.0)
        cells.append((Hx, Hy, energy, coverage, outside))
    return cells
