"""Long-form CSV writer for values sampled on a rectangular grid.

Every grid file the package writes goes through ``write_grid_csv``: one
header line, then one row per cell with the outer axis in the outer
loop, the inner axis in the inner loop, and the cell values after them.
Floats are ``%.9e``, the same CPython formatter as ``f"{x:.9e}"``.
"""

from __future__ import annotations

import numpy as np


def write_grid_csv(path, header: str, outer, inner, columns, formats) -> None:
    """Write ``outer[i], inner[j], columns[0][i, j], ...`` rows.

    ``formats`` holds one ``%`` conversion per column (``"%.9e"`` or
    ``"%d"``).  The inner axis is formatted once into a row template,
    which each outer row fills with its own axis string and cell values
    and writes in one call, so temporaries stay at one row of the grid.
    """
    inner_s = ["%.9e" % x for x in np.asarray(inner).tolist()]
    tail = "".join("," + fmt for fmt in formats) + "\n"
    template = "".join("%s," + s + tail for s in inner_s)
    stride = 1 + len(columns)
    args = [None] * (stride * len(inner_s))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for i, x in enumerate(np.asarray(outer).tolist()):
            args[0::stride] = ["%.9e" % x] * len(inner_s)
            for k, col in enumerate(columns, 1):
                args[k::stride] = col[i].tolist()
            fh.write(template % tuple(args))
