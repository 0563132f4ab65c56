"""The brute-force oracle's answers on seeded random instances, one line each.

`tests/reference/oracle_records.txt` holds these lines for seeds 0-2, the
first 10 `random_instance` problems of each and eps 0.9, 0.5, 0.3, 0.1 and
0.05, called in that order on one oracle per problem: `n`, `certified`,
`n_low`, `n_high` and `pops` of a result, or `n_lower` and `pops` where the
call raises BudgetExceededError.  A speedup of the oracle must leave every
line as it is:

    PYTHONPATH=src python tests/oracle_records.py | diff - tests/reference/oracle_records.txt
"""

import random
from pathlib import Path

from tractlab.errors import BudgetExceededError, GridSizeError
from tractlab.tensor import _BruteForceOracle
from tractlab.verify import random_instance

REFERENCE = Path(__file__).resolve().parent / "reference" / "oracle_records.txt"
SEEDS, INSTANCES, EPSILONS = (0, 1, 2), 10, (0.9, 0.5, 0.3, 0.1, 0.05)


def _record(oracle, eps):
    try:
        res = oracle(eps)
    except BudgetExceededError as exc:
        return f"raises n_lower={exc.n_lower} pops={exc.pops}"
    except GridSizeError:
        return "no grid fits"
    return (f"n={res.n} certified={res.certified} n_low={res.n_low} "
            f"n_high={res.n_high} pops={res.pops}")


def records():
    """The reference file's lines, computed."""
    for seed in SEEDS:
        rng = random.Random(seed)
        for i in range(INSTANCES):
            oracle = _BruteForceOracle(random_instance(rng))
            for eps in EPSILONS:
                yield f"seed={seed} instance={i} eps={eps} {_record(oracle, eps)}"
            del oracle  # one grid alive at a time


if __name__ == "__main__":
    for line in records():
        print(line)
