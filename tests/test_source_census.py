"""``tools/source_census.py`` runs on this repository and its totals add up.

The census imports ``tools/identity_digests.py`` for its program import, so
an import error in either tool shows up here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_census_sections_and_totals():
    done = subprocess.run([sys.executable, "tools/source_census.py", str(ROOT)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    census = json.loads(done.stdout)
    assert set(census) == {"source_lines", "op_kinds", "fields", "defaults"}
    lines = dict(census["source_lines"])
    assert lines.pop("total") == sum(lines.values()) > 0
    defaults = dict(census["defaults"])
    assert defaults.pop("total") == sum(len(knobs) for knobs in defaults.values())
    assert census["op_kinds"] and all(census["fields"].values())
