"""Generate a workload's inputs and the oracle's expectations for one seed.

    python3 perfbench/prepare.py DIR WORKLOAD SEED [--quick]

Writes the corpus, ``judgments.csv``, ``vectors.bin`` (WE matching) and,
last, ``expected.json`` into DIR. ``run.py`` runs this in its own process so
that the launching process stays small: a measured process's ``ru_maxrss``
includes the peak of the process it was launched from.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import gen
import oracle
from workloads import QUICK, WORKLOADS


def prepare(root: Path, shape, seed: int) -> dict:
    inputs = gen.generate(shape, seed, root)
    expected = {"load": None, "density": 0.0, "vocab": inputs.vocab}
    matcher = None
    if inputs.vectors is not None:
        table = oracle.read_vectors(inputs.vectors, wanted=set(inputs.vocab))
        expected["load"] = {"entries": table.entries, "duplicates": table.duplicates,
                            "case_collisions": table.case_collisions,
                            "zero_dropped": table.zero_dropped}
        used = sorted({w for models, systems in inputs.tokens.values()
                       for toks in [*models, *systems.values()] for w in toks})
        expected["density"] = oracle.positive_sim_density(
            [table.vectors[w] for w in used if w in table.vectors], seed)
        matcher = oracle.SoftMatcher(table.vectors, shape.oov)
    expected.update(oracle.expected_scores(inputs.tokens, inputs.system_ids, inputs.human,
                                           shape.variants, shape.match, matcher))
    return expected


def main() -> None:
    root, workload, seed = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
    shape = (QUICK if "--quick" in sys.argv[4:] else WORKLOADS)[workload]
    expected = prepare(root, shape, seed)
    (root / "expected.json").write_text(json.dumps(expected), encoding="utf-8")


if __name__ == "__main__":
    main()
