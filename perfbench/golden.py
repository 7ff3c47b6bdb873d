"""Record the paper-eval reference digests.

Runs the paper-eval evaluation once per seed in ``SEEDS`` and writes the
digest of every consumer's results (``workloads.results_digest``) to
``perfbench/golden/paper-eval.json``.  ``run.py`` compares each run of
paper-eval with the digest recorded for its seed, so an optimisation that
changes any detection outcome or any gain, down to the last bit, fails
the run.  Rewrite the file only for a change whose purpose is to alter
the evaluation's results::

    python3 perfbench/golden.py

Seeds whose results break the paper's Table II/III orderings are listed
and make the script exit 1.
"""

from __future__ import annotations

import json
import sys

import run

#: Seeds with a recorded digest; runs on other seeds check Table I and
#: the orderings only.
SEEDS = range(0, 101)


def main() -> int:
    run._import_program()
    from workloads import WORKLOADS, results_digest

    workload = WORKLOADS["paper-eval"]
    digests, broken = {}, []
    for seed in SEEDS:
        inputs = workload.generate(seed)
        result = workload.run(inputs, None, None)
        if result.failed:
            sys.exit(f"seed {seed}: the evaluation raised")
        digests[str(seed)] = results_digest(result.outputs["results"])
        problems = workload.orderings(result.outputs["tables"])
        if problems:
            broken.append(seed)
        print(f"seed {seed}: {digests[str(seed)][:16]} "
              f"{'; '.join(problems) or 'orderings hold'}", flush=True)
    workload.GOLDEN_FILE.parent.mkdir(exist_ok=True)
    workload.GOLDEN_FILE.write_text(json.dumps(
        {"sizes": workload.sizes(), "digests": digests}, indent=1) + "\n")
    if broken:
        print(f"orderings broken on seeds {broken}")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
