"""Record the output digest of every workload for a range of seeds.

    python3 bench/record_digests.py 0 32

Writes ``bench/digests.json``, which ``run.py`` checks each pass against.
Re-record only when the generator or a workload's definition changes;
a library change that alters outputs must fail the check instead.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from spans import Tracer


def digests(seed: int) -> dict[str, str]:
    inp = run.generate.generate(seed)
    work = run.WORK / f"record-{seed}"
    files = inp.write(work)
    try:
        tracer = Tracer(layers=False)
        g, idx, *_rest = run.set_up(files, work, True, tracer)
        topics = run.pipeline.load_topics(str(files["topics.tsv"]))
        out = {}
        for workload, cfg in run.CONFIGS.items():
            out[workload] = run.sha256(run.topics_pass(g, idx, topics, cfg, tracer, None)[2])
        out["graph-study"] = run.sha256(run.graph_pass(g, inp.hub_titles, tracer)[2])
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> None:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    path = run.BENCH / "digests.json"
    table = json.loads(path.read_text())
    for seed in range(first, last):
        for workload, digest in digests(seed).items():
            table.setdefault(workload, {})[str(seed)] = digest
        print(f"seed {seed} recorded", flush=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
