"""Hot numeric kernels: transmission S21 and field-map cells.

``s21_rows`` is the one transmission forward model: ``spectra.s21``
calls it with one field row and ``spectra.density_map`` with blocks of
rows.  S21 needs only the driven mode's entry of A^-1; when the
couplings form a tree (the star of magnons on one cavity, the
cavity-R-L chain) that entry is a continued fraction evaluated leaves
first over the whole block, with no linear solve.  Other coupling graphs
take one batched ``np.linalg.solve``.

Every line-current field comes from one evaluator, ``_row_fields``:
``field_cells`` runs it on the blocks of its quadrature and
``line_fields`` on any broadcast points (G's wall and post circles).
``field_cells`` shares the masks, the subsample points and each post's
field between all the current-sign rows it is given, so the dark and
bright modes of one geometry cost one pass.  It forms no meshgrid: every squared distance is an outer sum of 1-D axis
terms, taken in blocks that reuse one set of scratch arrays, and it
keeps only each row's cell energy, the coverage and the node mask.  The
test oracles keep a scalar per-cell reference and the full-meshgrid
formulation this replaced (``field_cells_meshgrid``), which both match
byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

# Subsamples per axis for cells cut by a post or the outer wall; 8x8 keeps
# the quadrature second-order despite the 1/rho field at the post surface.
SUBSAMPLE = 8

# Points per block of the field-cell passes: each block's temporaries are
# small enough to be reused from block to block instead of being paged in
# afresh for the whole grid.
_BLOCK_POINTS = 1 << 15

__all__ = [
    "SUBSAMPLE",
    "s21_rows",
    "line_fields",
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


def _add_signed(acc, s, h, first):
    """acc = +0 + s*h when ``first``, else acc + s*h, in place; s is -1 or 1.

    Starting from +0 turns a first term of -0.0 into +0.0.
    """
    if first:
        (np.add if s > 0.0 else np.subtract)(0.0, h, out=acc)
    elif s > 0.0:
        acc += h
    else:
        acc -= h


def _outer_sum(a, b, out):
    """a + b broadcast into ``out``, as a copy of b and an in-place add.

    The same bits as ``np.add(a, b, out=out)``, which buffers both
    broadcast inputs in arrays of its own.
    """
    np.copyto(out, b)
    out += a
    return out


def _row_fields(x, y, posts, rows, r_post, r_cav, out, work):
    """Domain mask of the points (x, y), and each sign row's field written to ``out``.

    The points are the broadcast of the axes ``x`` and ``y``: an (n, 1)
    column and a (1, m) row span a grid, so every squared distance is an
    outer sum of 1-D terms and no coordinate grid is formed.  The mask
    is True inside the wall and outside every post.  Each post's field
    is formed once, in the two ``work`` arrays, and added to the
    ``out[k] = (Hx, Hy)`` of every row ``k`` that drives it; row sums
    start from +0 and add the posts in order.  With no rows only the
    mask is formed.
    """
    r2, hx = work
    inside = _outer_sum(x * x, y * y, r2) <= r_cav * r_cav
    r_post2 = r_post * r_post
    started = [False] * len(rows)
    for p, (px, py) in enumerate(posts):
        dx = x - px
        dy = y - py
        _outer_sum(dx * dx, dy * dy, r2)
        inside &= r2 >= r_post2
        driven = [k for k, row in enumerate(rows) if row[p] != 0.0]
        if not driven:
            continue
        # the unit-current field 1/(2*pi*rho), 0 where r2 == 0; r2 becomes Hy
        pref = np.multiply(r2, 2.0 * np.pi, out=r2)
        np.divide(1.0, pref, out=pref, where=pref > 0.0)
        np.multiply(pref, -dy, out=hx)  # bitwise -(pref * dy), signed zeros included
        fields = hx, np.multiply(pref, dx, out=pref)
        for k in driven:
            for acc, h in zip(out[k], fields):
                _add_signed(acc, rows[k][p], h, not started[k])
            started[k] = True
    for k, (Hx, Hy) in enumerate(out):
        if not started[k]:
            Hx.fill(0.0)
            Hy.fill(0.0)
    return inside


def line_fields(x, y, posts, signs):
    """New (Hx, Hy) arrays at the broadcast of the float arrays ``x`` and ``y``.

    Post ``p`` is a unit line current carrying ``signs[p]`` A along +z,
    a sign of -1, 0 or 1; it adds nothing at its own centre.
    """
    r2, hx, Hx, Hy = (np.empty(np.broadcast_shapes(x.shape, y.shape)) for _ in range(4))
    _row_fields(x, y, posts, [signs], 0.0, math.inf, [(Hx, Hy)], (r2, hx))
    return Hx, Hy


def _blocks(n, per_item):
    """Slices of range(n) holding at most ``_BLOCK_POINTS`` points each.

    One item always makes a block, whatever its size.
    """
    step = max(1, _BLOCK_POINTS // per_item)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _view(buf, shape):
    """The leading elements of the flat scratch ``buf`` as an array of ``shape``."""
    return buf[: math.prod(shape)].reshape(shape)


@np.errstate(all="ignore")
def field_cells(xc, yc, posts, sign_rows, r_post, r_cav):
    """Quadrature cells of the midplane field, one set per row of current signs.

    In row ``k`` post ``p`` carries ``sign_rows[k][p]`` A along +z; each
    sign is -1, 0 or 1.  The cell masks, the subsample points and each
    post's field are computed once and shared by all rows.  The corner
    lattice, the node grid and the subsamples of the cut cells are each
    the broadcast of two 1-D axes, taken in blocks of whole rows or
    cells that reuse one set of scratch arrays; no meshgrid is formed.
    Returns one ``(energy, coverage, excluded)`` tuple per row: cell-mean
    |H|^2 over the covered fraction, that fraction, and the mask of nodes
    outside the domain; the last two depend on the geometry only and are
    the same arrays in every tuple.  Node fields are not kept: each
    block's are reduced to |H|^2 in the scratch.  Overflow on extreme
    axes gives inf or nan without a warning.  ``tests/oracles.py`` keeps
    the meshgrid version, which this matches byte for byte.
    """
    xc = np.asarray(xc, dtype=float)
    yc = np.asarray(yc, dtype=float)
    posts = np.asarray(posts, dtype=float)
    rows = [tuple(float(s) for s in row) for row in sign_rows]
    if any(len(row) != len(posts) or not set(row) <= {-1.0, 0.0, 1.0} for row in rows):
        raise ValueError("each sign row needs one sign in {-1, 0, 1} per post")
    # room for one block of any pass: one post's (Hx, Hy), then each
    # row's (Hx, Hy) on the nodes or on the subsamples of the cut cells
    n_work = max(_BLOCK_POINTS, yc.size + 1, SUBSAMPLE * SUBSAMPLE)
    scratch = np.empty((2 + 2 * len(rows), n_work))

    counts = _corner_counts(xc, yc, posts, r_post, r_cav, scratch)
    full = counts == 4
    not_full = ~full
    energies, outside = _node_energies(xc, yc, posts, rows, r_post, r_cav, not_full, scratch)
    cut = (counts != 0) | ~outside
    cut &= not_full
    del counts, not_full
    flat = np.flatnonzero(cut)
    del cut
    cut_energies, cnt = _cut_cells(xc, yc, flat, posts, rows, r_post, r_cav, scratch)
    # the scratch goes before the last kept array is made
    del scratch
    coverage = full.astype(float)
    coverage.reshape(-1)[flat] = cnt / (SUBSAMPLE * SUBSAMPLE)

    cells = []
    for energy, ce in zip(energies, cut_energies):
        energy.reshape(-1)[flat] = ce
        cells.append((energy, coverage, outside))
    return cells


def _corner_counts(xc, yc, posts, r_post, r_cav, scratch):
    """Corners of each cell in the domain, 0 to 4, as int8."""
    dx = xc[1] - xc[0]
    nx, ny = xc.size, yc.size
    # corner lattice: one row/column more than cells
    cx = np.concatenate([xc - 0.5 * dx, [xc[-1] + 0.5 * dx]])
    cy = np.concatenate([yc - 0.5 * dx, [yc[-1] + 0.5 * dx]])
    corner_in = np.empty((nx + 1, ny + 1), dtype=np.int8)
    for b in _blocks(nx + 1, ny + 1):
        shape = (b.stop - b.start, ny + 1)
        work = [_view(w, shape) for w in scratch[:2]]
        corner_in[b] = _row_fields(cx[b, None], cy[None, :], posts, (), r_post, r_cav, (), work)
    counts = corner_in[:-1, :-1] + corner_in[1:, :-1]
    counts += corner_in[:-1, 1:]
    counts += corner_in[1:, 1:]
    return counts


def _node_energies(xc, yc, posts, rows, r_post, r_cav, not_full, scratch):
    """Each row's node |H|^2 and the mask of nodes outside the domain.

    A block's node fields are formed in the scratch and reduced to |H|^2
    there; nodes outside the domain and on cells that are not full get 0.
    """
    nx, ny = xc.size, yc.size
    energies = [np.empty((nx, ny)) for _ in rows]
    outside = np.empty((nx, ny), dtype=bool)
    for b in _blocks(nx, ny):
        views = [_view(w, (b.stop - b.start, ny)) for w in scratch]
        out = list(zip(views[2::2], views[3::2]))
        inside = _row_fields(xc[b, None], yc[None, :], posts, rows, r_post, r_cav, out, views[:2])
        np.logical_not(inside, out=outside[b])
        zero = np.logical_or(outside[b], not_full[b], out=inside)
        for (Hx, Hy), energy in zip(out, energies):
            e = np.multiply(Hx, Hx, out=energy[b])
            e += np.multiply(Hy, Hy, out=Hy)
            np.copyto(e, 0.0, where=zero)
    return energies, outside


def _cut_cells(xc, yc, flat, posts, rows, r_post, r_cav, scratch):
    """Each row's |H|^2 averaged over the subsamples in the domain of the
    cut cells at the flat indices ``flat``, and their subsample counts."""
    ss = SUBSAMPLE
    dx = xc[1] - xc[0]
    offs = (np.arange(ss) + 0.5) * dx / ss - 0.5 * dx
    energies = [np.empty(flat.size) for _ in rows]
    cnt = np.empty(flat.size, dtype=np.intp)
    for b in _blocks(flat.size, ss * ss):
        m = b.stop - b.start
        ci, cj = np.divmod(flat[b], yc.size)
        # cells on the last axis, so every broadcast runs along the cells
        sx = (xc[ci] + offs[:, None])[:, None, :]  # (ss, 1, m)
        sy = (yc[cj] + offs[:, None])[None, :, :]  # (1, ss, m)
        views = [_view(w, (ss, ss, m)) for w in scratch]
        out = list(zip(views[2::2], views[3::2]))
        sub_in = _row_fields(sx, sy, posts, rows, r_post, r_cav, out, views[:2])
        n_in = cnt[b] = sub_in.sum(axis=(0, 1))
        # each cell's ss*ss terms are copied to one row in x-major order,
        # so every cell sums like a row of the (cells, ss*ss) layout
        by_cell = _view(scratch[0], (m, ss, ss))
        for (e, ey), ce in zip(out, energies):
            e *= e
            ey *= ey
            e += ey
            e *= sub_in
            np.copyto(by_cell, e.transpose(2, 0, 1))
            total = by_cell.reshape(m, -1).sum(axis=1)
            ce[b] = np.where(n_in > 0, total / np.maximum(n_in, 1), 0.0)
    return energies, cnt
