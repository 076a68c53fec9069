"""The benchmark's recorded output digests, recomputed in tier-1.

``bench/digests.json`` holds the sha256 of every workload's output per
generator seed; a library change that alters an output must fail here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEEDS = ("3", "17")

# bench/record_digests.py's digests(seed), with the bench's work directory moved under
# the test's own, so that nothing is written into the checkout; one JSON line out
_RECOMPUTE = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import record_digests, run
run.WORK = Path(sys.argv[2])
print(json.dumps({seed: record_digests.digests(int(seed)) for seed in sys.argv[3:]}))
"""


def test_recomputed_digests_match_the_recorded_table(tmp_path):
    recorded = json.loads((BENCH / "digests.json").read_text())
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leaves no __pycache__ in bench/
    done = subprocess.run([sys.executable, "-c", _RECOMPUTE, str(BENCH), str(tmp_path), *SEEDS],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout.splitlines()[-1])
    assert sorted(got) == sorted(SEEDS)
    for seed, digests in got.items():
        assert sorted(digests) == ["graph-study", "topics", "topics-prf"]
        differ = [workload for workload, digest in digests.items() if recorded[workload][seed] != digest]
        assert not differ, f"seed {seed}: {', '.join(differ)} output differs from bench/digests.json"
    assert list(tmp_path.iterdir()) == []  # digests removes its work directory
