"""Fixed reference process: measures how fast the host runs right now.

    python3 perfbench/speedref.py

run.py starts it before the first timed pass and after every pass, and
divides each pass's times by the mean wall time of the two starts either
side of it (see ``Run.scaled``). It does what a CLI process does, on inputs
that never change: start the interpreter, import numpy and scipy.special,
parse JSON rows in pure Python and run a few numpy kernels. It never imports
``ppc_uq``, so no change to the program can change its cost.
"""
import json

import numpy as np
from scipy.special import ndtr

ROWS, WIDTH, DRAWS = 2000, 20, 200_000


def main() -> None:
    rng = np.random.default_rng(0)
    text = "\n".join(json.dumps({"p": row}) for row in rng.random((ROWS, WIDTH)).tolist())
    probs = np.asarray([json.loads(line)["p"] for line in text.splitlines()])
    cums = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
    idx = np.searchsorted(cums[0], rng.random(DRAWS))
    cdf = ndtr(rng.standard_normal(DRAWS))
    if not (0 <= idx.min() and idx.max() <= WIDTH and 0 < cdf.mean() < 1):
        raise SystemExit("reference computation went wrong")


if __name__ == "__main__":
    main()
