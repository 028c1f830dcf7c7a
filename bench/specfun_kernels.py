"""Time specfun's scalar and array Beta-CDF kernels over array sizes.

For each size and each (alpha, beta) pair of the grid {0.2, 0.5, 1, 2, 5}^2
it times the two ways `specfun` can warp an array of uniform values: the
scalar kernel value by value, as `_run_kernel` runs it, and the array
kernel. The two are timed alternately, best of --repeats, and the sums over
the 25 pairs pick the cutoff, `_SCALAR_MAX` for the forward direction and
`_SCALAR_MAX_INV` for the inverse: the last size before the first one at
which the scalar loop is slower. Prints the table as JSON.

    PYTHONPATH=src python3 bench/specfun_kernels.py --repeats 5
    PYTHONPATH=src python3 bench/specfun_kernels.py --repeats 3 --direction inverse
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from mobench.specfun import _betainc_array, _betainc_scalar, _betaincinv_array, _betaincinv_scalar

GRID = (0.2, 0.5, 1.0, 2.0, 5.0)
SIZES = (2, 4, 8, 16, 20, 24, 32, 40, 48, 56, 64, 80, 96, 128, 160, 200, 240, 280, 320, 360,
         400, 500, 1000, 2000)
KERNELS = {
    "forward": (_betainc_scalar, _betainc_array),
    "inverse": (_betaincinv_scalar, _betaincinv_array),
}


def best_us(fn, a, b, x, number, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn(a, b, x)
        best = min(best, time.perf_counter() - start)
    return best / number * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--direction", choices=sorted(KERNELS), default="forward")
    args = parser.parse_args()
    scalar, array = KERNELS[args.direction]

    def scalar_loop(a, b, x):
        return np.array([scalar(a, b, t) for t in x.tolist()], dtype=float)

    rng = np.random.default_rng(args.seed)
    rows = []
    for n in SIZES:
        number = max(1, 400 // n)
        scalar_us, array_us = [], []
        for a in GRID:
            for b in GRID:
                x = rng.random(n)
                scalar_us.append(best_us(scalar_loop, a, b, x, number, args.repeats))
                array_us.append(best_us(array, a, b, x, number, args.repeats))
        rows.append({
            "size": n,
            "scalar_us_sum_25_pairs": round(sum(scalar_us), 1),
            "array_us_sum_25_pairs": round(sum(array_us), 1),
            "scalar_over_array": round(sum(scalar_us) / sum(array_us), 3),
            "pairs_where_scalar_faster": sum(s <= t for s, t in zip(scalar_us, array_us)),
        })
    cutoff = 0
    for row in rows:
        if row["scalar_over_array"] > 1.0:
            break
        cutoff = row["size"]
    print(json.dumps({"direction": args.direction, "rows": rows, "cutoff": cutoff}, indent=1))


if __name__ == "__main__":
    main()
