"""Independent numerical oracles for the test suite.

Everything here deliberately avoids the library's own solution paths:
eigenvalues come from characteristic-polynomial bisection rather than
closed forms or LAPACK's symmetric solver, and the ultrastrong two-mode
problem is solved from the classical equations-of-motion matrix.  Keeping
these routes separate is what makes the implementation-vs-oracle
comparisons in the tests meaningful.
"""

from __future__ import annotations

import numpy as np

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

    Returns (lower, upper) arrays.  Brackets: the parabola's vertex sits
    between the roots; Gershgorin radii bound them outside.
    """
    fc = np.asarray(fc, dtype=float)
    fm = np.asarray(fm, dtype=float)
    h = np.asarray(h, dtype=float)
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
    return lower, upper


def eig3_bisect(d0, d1, d2, a, b):
    """All eigenvalues of the tridiagonal [[d0,a,0],[a,d1,b],[0,b,d2]].

    Monic cubic char poly bisected on the three intervals delimited by its
    stationary points; Gershgorin disks bound the outer brackets.
    """
    d0, d1, d2, a, b = (np.asarray(v, dtype=float) for v in (d0, d1, d2, a, b))
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
    return lower, middle, upper


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


def write_map_csv_fstring(path, dmap):
    """Reference map writer: one f-string and one write per cell."""
    db = dmap.to_db()
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("B_T,f_Hz,s21_dB\n")
        for i, b in enumerate(dmap.B_axis):
            for j, fr in enumerate(dmap.f_axis):
                fh.write(f"{b:.9e},{fr:.9e},{db[i, j]:.9e}\n")


def write_field_csv_fstring(path, fmap):
    """Reference field-map writer: one f-string and one write per cell."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("x_m,y_m,Hx,Hy,mask\n")
        for i, x in enumerate(fmap.xs):
            for j, y in enumerate(fmap.ys):
                fh.write(
                    f"{x:.9e},{y:.9e},{fmap.Hx[i, j]:.9e},"
                    f"{fmap.Hy[i, j]:.9e},{int(fmap.excluded[i, j])}\n"
                )
