#!/usr/bin/env python3
"""Localized states on a 1D grid measure.

Builds the polynomial Hilbert space over the uniform grid on [-1, 1] and
plots (as TSV) the squared localized states psi^2_y(x) for a few anchor
points y and several basis dimensions. The peak of each column sits near its
anchor and sharpens as the dimension grows: this is the mechanism behind
Radon-Nikodym style interpolation, where a value at y is the average of the
label under the weight psi^2_y.
"""

import numpy as np

from kgo.demo import ANCHORS, localized_states_table

OUT = "demo_localized_states.tsv"


def main():
    blocks = []
    header_all = ["x"]
    for n in (7, 25, 50):
        header, rows = localized_states_table(n=n)
        header_all += [f"{name}_n{n}" for name in header[1:]]
        blocks.append(rows[:, 1:])
        for y, col in zip(ANCHORS, rows[:, 1:].T):
            peak = rows[np.argmax(col), 0]
            print(f"n={n:3d}  y={y:+.1f}  peak at x={peak:+.3f}  "
                  f"max psi^2={col.max():.2f}")
    grid = localized_states_table(n=7)[1][:, :1]
    table = np.column_stack([grid] + blocks)
    with open(OUT, "w", encoding="utf-8") as handle:
        handle.write("\t".join(header_all) + "\n")
        for row in table:
            handle.write("\t".join(repr(float(v)) for v in row) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
