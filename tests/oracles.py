"""Independent numerical oracles for the test suite.

Everything here deliberately avoids the library's own solution paths:
eigenvalues come from characteristic-polynomial bisection rather than
closed forms or LAPACK's symmetric solver, and the ultrastrong two-mode
problem is solved from the classical equations-of-motion matrix.  Keeping
these routes separate is what makes the implementation-vs-oracle
comparisons in the tests meaningful.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from magcav.core import DomainError
from magcav.spectra import DensityMap, MapFormatError

TWO_PI = 2.0 * np.pi


def _bisect_poly(p, lo, hi, iters=80):
    """Vectorized bisection for a root of p in [lo, hi] (sign change assumed)."""
    flo = p(lo)
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = p(mid)
        same = np.sign(fm) == np.sign(flo)
        lo = np.where(same, mid, lo)
        flo = np.where(same, fm, flo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def eig2_bisect(fc, fm, h):
    """Both eigenvalues of [[fc, h], [h, fm]] by bisection on the char poly.

    Returns (lower, upper) arrays.  The polynomial is formed in the frame
    shifted by the mean diagonal, so its coefficients stay at the scale
    of the splitting rather than of the absolute frequency.  Brackets:
    the parabola's vertex sits between the roots; Gershgorin radii bound
    them outside.
    """
    fc = np.asarray(fc, dtype=float)
    fm = np.asarray(fm, dtype=float)
    h = np.asarray(h, dtype=float)
    shift = 0.5 * (fc + fm)
    fc = fc - shift
    fm = fm - shift
    tr = fc + fm
    det = fc * fm - h * h

    def p(x):
        return x * x - tr * x + det

    vertex = 0.5 * tr
    r = np.abs(h)
    lo_bound = np.minimum(fc, fm) - r - 1.0
    hi_bound = np.maximum(fc, fm) + r + 1.0
    lower = _bisect_poly(p, lo_bound, vertex)
    upper = _bisect_poly(p, vertex, hi_bound)
    return lower + shift, upper + shift


def eig3_bisect(d0, d1, d2, a, b):
    """All eigenvalues of the tridiagonal [[d0,a,0],[a,d1,b],[0,b,d2]].

    Monic cubic char poly, formed in the frame shifted by the mean
    diagonal, bisected on the three intervals delimited by its stationary
    points; Gershgorin disks bound the outer brackets.  Unshifted, the
    stationary-point bracket sqrt(c2^2 - 3 c1) cancels at GHz frequencies
    and clustered roots land tens of Hz off.
    """
    d0, d1, d2, a, b = (np.asarray(v, dtype=float) for v in (d0, d1, d2, a, b))
    shift = (d0 + d1 + d2) / 3.0
    d0, d1, d2 = d0 - shift, d1 - shift, d2 - shift
    c2 = -(d0 + d1 + d2)
    c1 = d0 * d1 + d0 * d2 + d1 * d2 - a * a - b * b
    c0 = -(d0 * d1 * d2 - a * a * d2 - b * b * d0)

    def p(x):
        return ((x + c2) * x + c1) * x + c0

    # stationary points of the cubic: roots of 3x^2 + 2 c2 x + c1
    disc = np.sqrt(np.maximum(c2 * c2 - 3.0 * c1, 0.0))
    s_lo = (-c2 - disc) / 3.0
    s_hi = (-c2 + disc) / 3.0
    r0 = np.abs(a)
    r1 = np.abs(a) + np.abs(b)
    r2 = np.abs(b)
    g_lo = np.minimum(np.minimum(d0 - r0, d1 - r1), d2 - r2) - 1.0
    g_hi = np.maximum(np.maximum(d0 + r0, d1 + r1), d2 + r2) + 1.0
    lower = _bisect_poly(p, g_lo, s_lo)
    middle = _bisect_poly(p, s_lo, s_hi)
    upper = _bisect_poly(p, s_hi, g_hi)
    return lower + shift, middle + shift, upper + shift


def bogoliubov_eom(fc, fm, g_over_pi):
    """Ultrastrong two-mode frequencies from the classical EOM matrix.

    Writes the two-oscillator Hamiltonian with position-position coupling
    in quadratures (x1, p1, x2, p2) and takes the imaginary parts of the
    4x4 dynamical matrix's eigenvalues; no use of the closed-form radical.
    """
    wc = TWO_PI * fc
    wm = TWO_PI * fm
    g = np.pi * g_over_pi
    M = np.array(
        [
            [0.0, wc, 0.0, 0.0],
            [-wc, 0.0, -2.0 * g, 0.0],
            [0.0, 0.0, 0.0, wm],
            [-2.0 * g, 0.0, -wm, 0.0],
        ]
    )
    ev = np.linalg.eigvals(M)
    freqs = np.sort(np.abs(ev.imag)) / TWO_PI
    # each physical frequency appears twice (+-i omega pairs)
    return float(freqs[0]), float(freqs[2])


def lorentzian_direct(f, amplitude, f0, fwhm, baseline=0.0):
    """Reference Lorentzian evaluated with no shared code."""
    hw = 0.5 * fwhm
    return baseline + amplitude * hw * hw / ((np.asarray(f) - f0) ** 2 + hw * hw)


def s21_star_formula(f, f_c, kappa, k1, k2, magnons):
    """Spec-form transmission for star topology (every magnon to cavity).

    magnons: list of (f_j, gamma_j, g_over_pi_j).  This is the scalar
    closed form the matrix response must reduce to when there is no
    magnon-magnon coupling.
    """
    f = np.asarray(f, dtype=complex)
    den = 1j * (f_c - f) + 0.5 * kappa
    for fj, gj, gpj in magnons:
        den = den + (0.5 * gpj) ** 2 / (1j * (fj - f) + 0.5 * gj)
    return np.sqrt(k1 * k2) / den


def s21_point_solve(freqs, half_widths, half_couplings, drive, f_axis, amplitude):
    """Reference transmission: one dense LAPACK solve per (field row, f) cell.

    At each cell A = diag(half_widths + i (freqs[b] - f)) + i H is solved
    against the unit vector of ``drive``.  A singular A gives 0; singular
    means rank-deficient by SVD, since LU on an exactly singular A often
    meets a rounding-sized pivot instead of a zero one.  Returns the
    complex amplitude * x[drive], shaped (len(freqs), len(f_axis)).
    """
    freqs = np.asarray(freqs, dtype=float)
    f_axis = np.asarray(f_axis, dtype=float)
    H = 1j * np.asarray(half_couplings, dtype=float)
    e = np.zeros(freqs.shape[1], dtype=complex)
    e[drive] = 1.0
    out = np.zeros((freqs.shape[0], f_axis.size), dtype=complex)
    for b, row in enumerate(freqs):
        for k, f in enumerate(f_axis):
            A = np.diag(half_widths + 1j * (row - f)) + H
            if np.linalg.matrix_rank(A) == len(e):
                out[b, k] = amplitude * np.linalg.solve(A, e)[drive]
    return out


def find_peaks_scalar(f, y, min_prominence):
    """Reference peak picker: walk outward from every interior maximum.

    A maximum is y[i] > y[i-1] and y[i] >= y[i+1].  Its prominence is
    the height over the higher of the two valley floors met before the
    walk reaches strictly higher terrain (or the trace edge).  Kept
    maxima are refined to the vertex of the parabola through the three
    samples around them.  Returns (f_peak, height) pairs sorted in f.
    """
    f = np.asarray(f, dtype=float)
    y = np.asarray(y, dtype=float)
    peaks = []
    for i in range(1, f.size - 1):
        if not (y[i] > y[i - 1] and y[i] >= y[i + 1]):
            continue
        left_min = y[i]
        j = i - 1
        while j >= 0 and y[j] <= y[i]:
            left_min = min(left_min, y[j])
            j -= 1
        right_min = y[i]
        j = i + 1
        while j < y.size and y[j] <= y[i]:
            right_min = min(right_min, y[j])
            j += 1
        if y[i] - max(left_min, right_min) < min_prominence:
            continue
        x0, x1, x2 = f[i - 1 : i + 2]
        y0, y1, y2 = y[i - 1 : i + 2]
        num = (x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)
        den = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
        if den == 0.0:
            peaks.append((float(x1), float(y1)))
            continue
        xv = x1 - 0.5 * num / den
        xv = min(max(xv, x0), x2)
        # height of the interpolating parabola at xv, Newton form about x1
        s01 = (y1 - y0) / (x1 - x0)
        c = ((y2 - y1) / (x2 - x1) - s01) / (x2 - x0)
        peaks.append((float(xv), float(y1 + (xv - x1) * (s01 + c * (xv - x0)))))
    return peaks



def extract_ridge_columns(dmap, min_prominence_rel=0.25):
    """Reference ridge: ``find_peaks_scalar`` on one map column at a time.

    A column whose maximum is <= 0 is skipped; every other column checks
    the f axis first, as ``find_peaks`` does, so the first such column
    decides whether the ridge raises.  Returns arrays (B, f_peak).
    """
    if not 0.0 < min_prominence_rel < 1.0:
        raise DomainError("min_prominence_rel must lie in (0, 1)")
    Bs = []
    fs = []
    for i, b in enumerate(dmap.B_axis):
        col = dmap.values[i]
        top = float(col.max())
        if top <= 0.0:
            continue
        f = np.asarray(dmap.f_axis, dtype=float)
        if f.size != col.size or f.size < 3:
            raise DomainError("need at least three (f, y) samples")
        if np.any(np.diff(f) <= 0):
            raise DomainError("f samples must be strictly increasing")
        for f_peak, _ in find_peaks_scalar(f, col, min_prominence_rel * top):
            Bs.append(float(b))
            fs.append(f_peak)
    return np.array(Bs), np.array(fs)

def _line_currents_H(x, y, posts, signs, current):
    """(Hx, Hy) of signed line currents at one point, summed in post order."""
    hx = 0.0
    hy = 0.0
    for (px, py), s in zip(posts, signs):
        dx = x - px
        dy = y - py
        r2 = dx * dx + dy * dy
        if r2 > 0.0:
            pref = s * current / (2.0 * math.pi * r2)
            hx -= pref * dy
            hy += pref * dx
    return hx, hy


def _in_cavity_domain(x, y, posts, r_post2, r_cav2):
    if x * x + y * y > r_cav2:
        return False
    for px, py in posts:
        dx = x - px
        dy = y - py
        if dx * dx + dy * dy < r_post2:
            return False
    return True


def field_cells_scalar(xc, yc, posts, signs, current, r_post, r_cav, subsample=8):
    """Reference field cells, one grid cell at a time in plain Python.

    Post ``p`` carries ``signs[p] * current``.  A cell with all four
    corners in the domain (inside the wall, outside every post) takes the
    field at its center; a cell with neither a corner nor its center in
    the domain is empty; every other cell averages |H|^2 over its
    ``subsample`` x ``subsample`` sub-points that lie in the domain, its
    coverage is their fraction, and its Hx/Hy are the center field, or 0
    when the center lies outside the domain.  Returns (Hx, Hy, energy,
    coverage) arrays of shape (len(xc), len(yc)).
    """
    xc = [float(v) for v in xc]
    yc = [float(v) for v in yc]
    posts = [(float(px), float(py)) for px, py in posts]
    signs = [float(s) for s in signs]
    r_post2 = r_post * r_post
    r_cav2 = r_cav * r_cav
    dx = xc[1] - xc[0]
    half = 0.5 * dx
    ss = subsample
    shape = (len(xc), len(yc))
    Hx = np.zeros(shape)
    Hy = np.zeros(shape)
    energy = np.zeros(shape)
    coverage = np.zeros(shape)

    def in_domain(x, y):
        return _in_cavity_domain(x, y, posts, r_post2, r_cav2)

    for i, x in enumerate(xc):
        for j, y in enumerate(yc):
            corners = sum(
                in_domain(x + sx * half, y + sy * half)
                for sx in (-1.0, 1.0)
                for sy in (-1.0, 1.0)
            )
            center_in = in_domain(x, y)
            if corners == 4:
                hx, hy = _line_currents_H(x, y, posts, signs, current)
                Hx[i, j] = hx
                Hy[i, j] = hy
                energy[i, j] = hx * hx + hy * hy
                coverage[i, j] = 1.0
            elif corners > 0 or center_in:
                cnt = 0
                acc = 0.0
                for a in range(ss):
                    xs = x - half + (a + 0.5) * dx / ss
                    for b in range(ss):
                        ys = y - half + (b + 0.5) * dx / ss
                        if in_domain(xs, ys):
                            hx, hy = _line_currents_H(xs, ys, posts, signs, current)
                            acc += hx * hx + hy * hy
                            cnt += 1
                coverage[i, j] = cnt / (ss * ss)
                energy[i, j] = acc / cnt if cnt > 0 else 0.0
                if center_in:
                    Hx[i, j], Hy[i, j] = _line_currents_H(x, y, posts, signs, current)
    return Hx, Hy, energy, coverage


def _mesh_line_term(x, y, px, py):
    """(Hx, Hy, r2) of a unit line current at (px, py), on full coordinate grids."""
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


def _mesh_post_fields(x, y, posts):
    fields, r2s = [], []
    for px, py in posts:
        hx, hy, r2 = _mesh_line_term(x, y, px, py)
        fields.append((hx, hy))
        r2s.append(r2)
    return fields, r2s


def _mesh_signed_sum(signs, fields):
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


def _mesh_in_domain(x, y, post_r2, r_post, r_cav):
    ok = x * x + y * y <= r_cav * r_cav
    for r2 in post_r2:
        ok &= r2 >= r_post * r_post
    return ok


@np.errstate(all="ignore")
def field_cells_meshgrid(xc, yc, posts, sign_rows, r_post, r_cav, subsample=8):
    """Field cells as the library computed them on full coordinate grids.

    The byte-level reference for ``magcav._kernels.field_cells``: the
    corner lattice, the node grid and the cut-cell subsamples are
    materialised as meshgrids and broadcast copies, each post's field is
    formed on them, and the signed sums start from ``zeros_like``.
    Returns one ``(Hx, Hy, energy, coverage, excluded)`` tuple per sign
    row; the node fields ``Hx``/``Hy``, zero outside the domain, are the
    reference for ``magcav._kernels.line_fields`` on the node grid.
    Overflow on extreme axes gives inf or nan without a warning, as in
    the library.
    """
    xc = np.asarray(xc, dtype=float)
    yc = np.asarray(yc, dtype=float)
    posts = np.asarray(posts, dtype=float)
    rows = [tuple(float(s) for s in row) for row in sign_rows]
    dx = xc[1] - xc[0]

    cx = np.concatenate([xc - 0.5 * dx, [xc[-1] + 0.5 * dx]])
    cy = np.concatenate([yc - 0.5 * dx, [yc[-1] + 0.5 * dx]])
    CX, CY = np.meshgrid(cx, cy, indexing="ij")
    corner_in = _mesh_in_domain(
        CX, CY, ((CX - px) ** 2 + (CY - py) ** 2 for px, py in posts), r_post, r_cav
    )
    counts = (
        corner_in[:-1, :-1].astype(int)
        + corner_in[1:, :-1]
        + corner_in[:-1, 1:]
        + corner_in[1:, 1:]
    )

    X, Y = np.meshgrid(xc, yc, indexing="ij")
    node_fields, node_r2 = _mesh_post_fields(X, Y, posts)
    center_in = _mesh_in_domain(X, Y, node_r2, r_post, r_cav)
    full = counts == 4
    outside = ~center_in
    cut = ~full & ((counts != 0) | center_in)
    coverage = full.astype(float)
    not_full = ~full

    ci, cj = np.nonzero(cut)
    ss = subsample
    offs = (np.arange(ss) + 0.5) * dx / ss - 0.5 * dx
    sx = (xc[ci][:, None] + offs[None, :])[:, :, None]
    sy = (yc[cj][:, None] + offs[None, :])[:, None, :]
    px_ = np.broadcast_to(sx, (ci.size, ss, ss)).reshape(ci.size, ss * ss)
    py_ = np.broadcast_to(sy, (ci.size, ss, ss)).reshape(ci.size, ss * ss)
    sub_fields, sub_r2 = _mesh_post_fields(px_, py_, posts)
    sub_in = _mesh_in_domain(px_, py_, sub_r2, r_post, r_cav)
    cnt = sub_in.sum(axis=1)
    coverage[ci, cj] = cnt / (ss * ss)

    cells = []
    for row in rows:
        Hx, Hy = _mesh_signed_sum(row, node_fields)
        Hx[outside] = 0.0
        Hy[outside] = 0.0
        energy = Hx * Hx
        energy += Hy * Hy
        energy[not_full] = 0.0

        e, ey = _mesh_signed_sum(row, sub_fields)
        e *= e
        ey *= ey
        e += ey
        e *= sub_in
        energy[ci, cj] = np.where(cnt > 0, e.sum(axis=1) / np.maximum(cnt, 1), 0.0)
        cells.append((Hx, Hy, energy, coverage, outside))
    return cells


def db_full(values, floor=-200.0):
    """Reference dB conversion: the whole grid at once, as three full-size
    arrays."""
    return 20.0 * np.log10(np.maximum(values, 10.0 ** (floor / 20.0)))


def write_cells_csv_fstring(path, B_axis, f_axis, cells):
    """Reference grid writer: one f-string and one write per cell."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("B_T,f_Hz,s21_dB\n")
        for i, b in enumerate(B_axis):
            for j, fr in enumerate(f_axis):
                fh.write(f"{b:.9e},{fr:.9e},{cells[i, j]:.9e}\n")


def write_map_csv_fstring(path, dmap):
    """Reference map writer: the map's dB cells, one f-string per cell."""
    write_cells_csv_fstring(path, dmap.B_axis, dmap.f_axis, db_full(dmap.values))


def write_pgm_full(path, dmap, db_min=-120.0, db_max=0.0):
    """Reference PGM writer: clip, shift, scale, rint and cast on the whole
    grid, then the transposed image in one write."""
    scale = 255.0 / (float(db_max) - float(db_min))
    db = np.clip(db_full(dmap.values), db_min, db_max)
    gray = np.rint((db - db_min) * scale).astype(np.uint8)
    header = (f"P5\n# dB clamps [{db_min:g}, {db_max:g}]\n"
              f"{dmap.B_axis.size} {dmap.f_axis.size}\n255\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(gray.T.tobytes())


def read_map_loadtxt(path):
    """Reference map reader: ``np.loadtxt`` and a one-byte-per-cell grid.

    Any row order is accepted; the axes are the sorted distinct values of
    the first two columns, and every (B, f) cell must appear exactly once.
    Bad content raises MapFormatError naming the file.
    """
    header = "B_T,f_Hz,s21_dB"
    head = header.encode()
    with open(path, "rb") as fh:
        line = fh.readline(len(head) + 2)
    if line not in (head + b"\n", head + b"\r\n"):
        raise MapFormatError(f"{path}: first line {line!r} is not the header {header}")
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", "loadtxt: input contained no data", UserWarning
            )
            raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise MapFormatError(f"{path}: {exc}") from None
    if raw.shape[0] == 0:
        raise MapFormatError(f"{path}: no data rows")
    if raw.shape[1] != 3:
        raise MapFormatError(f"{path}: expected three columns: B_T, f_Hz, s21_dB")
    B_axis = np.unique(raw[:, 0])
    f_axis = np.unique(raw[:, 1])
    if not (np.all(np.isfinite(B_axis)) and np.all(np.isfinite(f_axis))):
        raise MapFormatError(f"{path}: B_T and f_Hz must be finite numbers")
    cell = np.searchsorted(B_axis, raw[:, 0]) * f_axis.size
    cell += np.searchsorted(f_axis, raw[:, 1])
    seen = np.zeros(B_axis.size * f_axis.size, dtype=bool)
    seen[cell] = True
    if raw.shape[0] != seen.size or not seen.all():
        raise MapFormatError(
            f"{path}: CSV rows do not tile a complete (B, f) grid "
            f"({int(seen.sum())} of {seen.size} cells in {raw.shape[0]} rows)"
        )
    amp = raw[:, 2]
    amp /= 20.0
    with np.errstate(over="ignore"):  # a cell above ~6165 dB: inf, which DensityMap rejects
        np.power(10.0, amp, out=amp)
    values = np.empty(seen.size)
    values[cell] = amp
    try:
        return DensityMap(B_axis, f_axis, values.reshape(B_axis.size, f_axis.size))
    except DomainError as exc:
        raise MapFormatError(f"{path}: {exc}") from None
