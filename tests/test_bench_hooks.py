"""The benchmark's tracer finds the saska functions it times.

perfbench/tracing.py hooks saska's layer functions by name and reports,
rather than fails on, a name it cannot find, so a rename in src/ would
silently read 0 in a per-layer metric.  This pins the names it misses
today; ROADMAP item 6 (benchmark upkeep) updates the list when it
re-hooks them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent

# the step functions and MemoryChannel methods deleted before this pin
STALE_HOOKS = [
    "protocol.init_initiator",
    "protocol.responder_on_commit",
    "protocol.initiator_on_payload",
    "protocol.responder_on_decommit",
    "protocol.confirm",
    "transport.send_frame",
    "transport.dispatch",
    "transport.recv_frame",
]

INSTALL = """
import json
import saska.adversary, saska.cli
import tracing
tracer = tracing.install(tracing.Tracer())
print(json.dumps({"missing": tracer.missing, "names": tracer.names}))
"""


def test_tracer_misses_only_the_known_stale_hooks():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    # no bytecode is written: the run leaves perfbench/ as it found it
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", INSTALL], capture_output=True, text=True,
                          timeout=30, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["missing"] == STALE_HOOKS
    assert "adversary.callback" in report["names"]
