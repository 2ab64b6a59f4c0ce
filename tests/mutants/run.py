"""Mutation check of the guards the security argument rests on.

Each mutant below breaks one guard by a single text replacement.  For each,
the tree (src, tests, perfbench, pyproject.toml) is copied to a temporary
directory, the mutant applied there, and the tier-1 suite run with -x and
without criterion 2's slow Monte Carlo band.  A mutant is killed when a test
fails or the run times out; a mutant whose suite passes survived, and the
script exits 1.  The unmutated copy is run first and must pass, so that a
broken tree cannot pass for a killed mutant.  Standard library only:

    python tests/mutants/run.py

A change that adds a guard adds its mutant here.  Mutation testing after
DeMillo, Lipton and Sayward, "Hints on Test Data Selection" (IEEE Computer,
1978).
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
COPIED = ["src", "tests", "perfbench", "pyproject.toml"]
SKIPPED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--deselect", "tests/test_acceptance.py::test_criterion_2_monte_carlo_band"]
TIMEOUT_S = 600

# (file under src/saska, old text, new text, the guard it breaks)
MUTANTS = [
    ("protocol.py",
     "if not in_subgroup(self.params, payload.public_share):",
     "if False:",
     "a peer takes a remote share outside the subgroup"),
    ("group.py",
     "if not in_subgroup(params, peer_share):",
     "if False:",
     "derive_key takes a share outside the subgroup"),
    ("group.py",
     "if not 1 < value < params.p:",
     "if not 0 < value < params.p:",
     "the identity element passes the subgroup check"),
    ("protocol.py",
     """        if not user_accepts:
            self._advance(Phase.ABORTED)
            return None
        self.session_key = derive_key(self.params, self.remote_payload.public_share, self.private)
""",
     """        self.session_key = derive_key(self.params, self.remote_payload.public_share, self.private)
        if not user_accepts:
            self._advance(Phase.ABORTED)
            return None
""",
     "the key is derived before the operator's answer is checked"),
    ("commitment.py",
     "hmac.compare_digest(_digest(nonce, message), digest)",
     "hmac.compare_digest(_digest(nonce, message)[:16], digest[:16])",
     "an opening is checked against 16 of the digest's 32 octets"),
    ("protocol.py",
     """        message = open_commitment(self.commitment, msg3.nonce, msg3.message)
        self._accept_remote(decode_payload(message, self.k), "initiator")
""",
     """        payload = decode_payload(msg3.message, self.k)
        open_commitment(self.commitment, msg3.nonce, msg3.message)
        self._accept_remote(payload, "initiator")
""",
     "the responder parses the opened payload before the opening is checked"),
    ("protocol.py",
     "if msg2.k != self.k:",
     "if False:",
     "the initiator takes a Msg2 at another k"),
    ("protocol.py",
     "if msg2.param_set_id != self.params.set_id:",
     "if False:",
     "the initiator takes a Msg2 on another parameter set"),
    ("protocol.py",
     "if not share_raw or (len(share_raw) > 1 and share_raw[0] == 0):",
     "if not share_raw:",
     "a public share with leading zero octets decodes"),
    ("protocol.py",
     "if value >> k:",
     "if False:",
     "a nonce with padding bits set above bit k decodes"),
    ("protocol.py",
     "if not label.isprintable():",
     "if False:",
     "an identity with a control character passes"),
    ("protocol.py",
     "if self.phase >= Phase.SAS_READY:",
     "if self.phase > Phase.SAS_READY:",
     "a frame after SAS_READY is processed, not ignored"),
    ("protocol.py",
     "if self.phase is not Phase.SAS_READY:",
     "if False:",
     "confirm runs outside SAS_READY"),
    ("protocol.py",
     "if self.phase is not Phase.SAS_READY:",
     "if self.phase not in (Phase.SAS_READY, Phase.CONFIRMED):",
     "a second confirm(True) logs CONFIRMED twice"),
    ("protocol.py",
     "if self.phase is not Phase.CREATED:",
     "if False:",
     "the initiator starts twice"),
    ("protocol.py",
     "step = _STEPS.get((self.role, self.phase))",
     "step = _STEPS.get((self.role, self.phase), _STEPS[Role.INITIATOR, Phase.COMMIT_EXCHANGED])",
     "a phase with no step runs the initiator's payload step: no phase check"),
    ("protocol.py",
     "if not isinstance(msg, cls):",
     "if False:",
     "a step runs on a message of the wrong class"),
    ("protocol.py",
     "Msg1, \"commit\", Peer._on_commit, (Phase.COMMIT_EXCHANGED, Phase.PAYLOAD_EXCHANGED)",
     "Msg1, \"commit\", Peer._on_commit, (Phase.PAYLOAD_EXCHANGED, Phase.COMMIT_EXCHANGED)",
     "the responder's commit step lists its phases in reverse"),
    ("adversary.py",
     "self.guess = guess & ((1 << self.k) - 1)",
     "self.guess = guess",
     "a fixed guess wider than k bits is used unmasked"),
]


def run_suite(tree: Path) -> tuple[str, float]:
    """'passed', 'failed' or 'timed out', and the seconds the run took."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    began = time.monotonic()
    try:
        proc = subprocess.run(PYTEST, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timed out", time.monotonic() - began
    finally:
        # a failing example saved by one run must not replay in the next
        shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    if proc.returncode not in (0, 1):
        sys.exit(f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return ("passed" if proc.returncode == 0 else "failed"), time.monotonic() - began


def copy_tree(dest: Path):
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name, ignore=SKIPPED)
        else:
            shutil.copy2(ROOT / name, dest / name)


def main() -> int:
    for name, old, _, reason in MUTANTS:
        count = (ROOT / "src" / "saska" / name).read_text().count(old)
        if count != 1:
            sys.exit(f"{name}: the old text of mutant '{reason}' occurs {count} times, not once")
    with tempfile.TemporaryDirectory(prefix="saska-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        copy_tree(tree)
        outcome, seconds = run_suite(tree)
        print(f"unmutated tree: {outcome} in {seconds:.1f} s", flush=True)
        if outcome != "passed":
            return 1
        survivors = []
        for number, (name, old, new, reason) in enumerate(MUTANTS, 1):
            path = tree / "src" / "saska" / name
            original = path.read_text()
            path.write_text(original.replace(old, new))
            try:
                outcome, seconds = run_suite(tree)
            finally:
                path.write_text(original)
            verdict = "SURVIVED" if outcome == "passed" else "killed"
            print(f"{number:2d}/{len(MUTANTS)} {verdict:8s} ({outcome}, {seconds:.1f} s) {name}: {reason}",
                  flush=True)
            if outcome == "passed":
                survivors.append(reason)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
