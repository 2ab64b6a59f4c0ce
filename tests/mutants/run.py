"""Mutation check of the guards the security argument rests on.

Most mutants are generated: guard_mutants() walks the ast of src/saska and,
for each `if` whose first statement is a `raise`, turns its condition into
False, spliced at the node's offsets so that two guards with the same text
each get their own mutant.  HAND_MUTANTS holds what that cannot express,
each a text replacement whose old text occurs once: an order of steps, a
guard broken only in part or a check that does not raise, a string both
peers still agree on, and the attacker's own accounting.

Each mutant is applied in a copy of the tree (src, tests, perfbench,
pyproject.toml).  Its module's own tests/test_<module>.py runs first, and
only if that passes the tier-1 suite, with -x, without criterion 2's slow
Monte Carlo band and without tests/test_mutants.py, which checks this
catalogue against the source each mutant changes.  A mutant is killed when
a run fails, cannot collect a test module or times out; a survivor makes
the script exit 1, and any other pytest exit stops the script.  The
unmutated copy must first pass each of those runs, so that a kill is never
a broken tree or an artefact of test order.  Standard library only:

    python tests/mutants/run.py

Mutation testing after DeMillo, Lipton and Sayward, "Hints on Test Data
Selection" (IEEE Computer, 1978).
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
SRC = ROOT / "src" / "saska"
COPIED = ["src", "tests", "perfbench", "pyproject.toml"]
SKIPPED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--ignore", "tests/test_mutants.py",
          "--deselect", "tests/test_acceptance.py::test_criterion_2_monte_carlo_band"]
SUITE = "tests"
TIMEOUT_S = 600

# (file under src/saska, old text, new text, what the mutant breaks)
HAND_MUTANTS = [
    ("group.py", "if not 1 < value < params.p:", "if not 0 < value < params.p:",
     "the identity element passes the subgroup check"),
    ("group.py", "p > _SMALL_P_MAX and jacobi(g, p) == 1", "p > _SMALL_P_MAX",
     "a share made from a generator outside the subgroup is recorded as a member"),
    ("group.py", "* row[low] % p", "* row[1] % p",
     "a fixed-base table entry is filled from its row's base, not from its lowest set bit's entry"),
    # pub_share(params, 0) is 1 and is remembered; only the range check,
    # run first, keeps the identity out
    ("group.py",
     """    if not 1 < value < params.p:
        return False
""",
     """    if (params, value) in _made_here:
        return True
    if not 1 < value < params.p:
        return False
""",
     "a remembered share is accepted before the range check: the identity passes"),
    ("protocol.py",
     """        if not user_accepts:
            self.phase_log.append(Phase.ABORTED)
            return None
        self.session_key = derive_key(self.params, self.remote_payload.public_share, self.private)
""",
     """        self.session_key = derive_key(self.params, self.remote_payload.public_share, self.private)
        if not user_accepts:
            self.phase_log.append(Phase.ABORTED)
            return None
""",
     "the key is derived before the operator's answer is checked"),
    ("commitment.py",
     "hmac.compare_digest(_digest(nonce, message), digest)",
     "hmac.compare_digest(_digest(nonce, message)[:16], digest[:16])",
     "an opening is checked against 16 of the digest's 32 octets"),
    ("protocol.py",
     """        message = open_commitment(self.commitment, msg3.nonce, msg3.message)
        self._accept_remote(message, "initiator")
""",
     """        decode_payload(msg3.message, self.k)
        message = open_commitment(self.commitment, msg3.nonce, msg3.message)
        self._accept_remote(message, "initiator")
""",
     "the responder parses the opened payload before the opening is checked"),
    # honest peers still agree on the string, so only the reference model
    # in tests/test_protocol.py tells it from the protocol
    ("protocol.py",
     "self.sas = compute_sas(self.own_nonce, payload.auth_nonce, self.k)",
     "self.sas = compute_sas(self.own_nonce & 1, payload.auth_nonce & 1, self.k)",
     "the SAS keeps one bit of each nonce"),
    ("protocol.py", "if not share_raw or (len(share_raw) > 1 and share_raw[0] == 0):", "if not share_raw:",
     "a public share with leading zero octets decodes"),
    ("protocol.py", "if phase >= _SAS_READY:", "if phase > _SAS_READY:",
     "a frame after SAS_READY is processed, not ignored"),
    ("protocol.py",
     "if self.phase is not Phase.SAS_READY:",
     "if self.phase not in (Phase.SAS_READY, Phase.CONFIRMED):",
     "a second confirm(True) logs CONFIRMED twice"),
    ("protocol.py",
     "step = self._steps.get(phase)",
     "step = self._steps.get(phase, _STEPS[Role.INITIATOR.value][Phase.COMMIT_EXCHANGED])",
     "a phase with no step runs the initiator's payload step: no phase check"),
    ("protocol.py",
     "Msg1, \"commit\", Peer._on_commit, (Phase.COMMIT_EXCHANGED, Phase.PAYLOAD_EXCHANGED)",
     "Msg1, \"commit\", Peer._on_commit, (Phase.PAYLOAD_EXCHANGED, Phase.COMMIT_EXCHANGED)",
     "the responder's commit step lists its phases in reverse"),
    ("adversary.py", "self.guess = guess & ((1 << self.k) - 1)", "self.guess = guess",
     "a fixed guess wider than k bits is used unmasked"),
    ("adversary.py",
     "return honest, random.Random(attacker_seed) if attacker else None",
     "return honest, honest if attacker else None",
     "the attacker draws from the victims' generator"),
    # a wrong attacker key scores zero and still passes the one-sided
    # Monte Carlo gate, so the attacker's own accounting is pinned too
    ("adversary.py", "seen = self.payload_a", "seen = self.payload_b",
     "the attacker's key with A is computed from B's payload"),
    ("adversary.py", "seen = self.payload_b", "seen = self.payload_a",
     "the attacker's key with B is computed from A's payload"),
    ("adversary.py", "for seen in (self.payload_a, self.payload_b):", "for seen in (self.payload_a,):",
     "the adaptive guess folds A's nonce but not B's"),
    # impersonate-responder's decisions never read B's Msg2, so only its
    # key check parses it
    ("adversary.py", "seen = self.payload_b", "seen = self._payload_b",
     "the attacker's key with B skips the parse of a frame no decision read"),
    # a check that does not raise: only a terminal holds what was typed ahead
    ("cli.py", "termios.tcflush(sys.stdin.fileno(), termios.TCIFLUSH)", "pass",
     "a line typed on the terminal before the prompt answers it"),
    ("cli.py", "except OSError as exc:", "except ConnectionError as exc:",
     "an OS fault other than a lost connection escapes run_peer as a traceback"),
]


def stale_anchors() -> list[str]:
    """Each hand mutant whose old text does not occur exactly once in its file."""
    return [f"{name}: the old text of mutant '{reason}' occurs {count} times, not once"
            for name, old, _, reason in HAND_MUTANTS
            if (count := (SRC / name).read_text().count(old)) != 1]


def _guards(node: ast.AST, where: str):
    """(enclosing function, if node) for each `if` under node whose first
    statement is a raise, in source order."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _guards(child, f"{where}.{child.name}" if where else child.name)
            continue
        if isinstance(child, ast.If) and isinstance(child.body[0], ast.Raise):
            yield where, child
        yield from _guards(child, where)


def guard_mutants() -> list[tuple[str, int, str, str, str]]:
    """(file under src/saska, line, enclosing function, condition with its
    whitespace collapsed, the file's source with that condition False) for
    each `if ...: raise` guard."""
    mutants = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_bytes()
        starts = [0]  # ast offsets are in UTF-8 octets from the line's start
        for line in source.splitlines(keepends=True):
            starts.append(starts[-1] + len(line))
        for where, node in _guards(ast.parse(source), ""):
            test = node.test
            begin = starts[test.lineno - 1] + test.col_offset
            end = starts[test.end_lineno - 1] + test.end_col_offset
            condition = " ".join(source[begin:end].decode().split())
            mutated = (source[:begin] + b"False" + source[end:]).decode()
            mutants.append((path.name, test.lineno, where, condition, mutated))
    return mutants


def all_mutants() -> list[tuple[str, str, str]]:
    """(file under src/saska, what the mutant breaks, mutated source), the
    hand-written ones first."""
    hand = [(name, reason, (SRC / name).read_text().replace(old, new))
            for name, old, new, reason in HAND_MUTANTS]
    made = [(name, f"{name}:{line} {where}: {condition} -> False", source)
            for name, line, where, condition, source in guard_mutants()]
    return hand + made


def stages(name: str) -> list[str]:
    """The pytest targets a mutant of src/saska/<name> runs, in order."""
    own = f"tests/test_{Path(name).stem}.py"
    return [own, SUITE] if (ROOT / own).exists() else [SUITE]


def outcome_of(returncode: int, stdout: str) -> str | None:
    """'passed', 'failed' or 'collection error' for a pytest exit, or None
    for any other exit.  pytest exits 2 both when a test module fails to
    import and when it is interrupted, so only a run whose summary names a
    collection error counts as one."""
    if returncode == 2 and " during collection" in stdout:
        return "collection error"
    return {0: "passed", 1: "failed"}.get(returncode)


def run_suite(tree: Path, target: str) -> tuple[str, float]:
    """'passed', 'failed', 'collection error' or 'timed out', and the
    seconds the run took; any other pytest exit ends the whole check."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    began = time.monotonic()
    try:
        proc = subprocess.run([*PYTEST, target], cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timed out", time.monotonic() - began
    finally:
        # a failing example saved by one run must not replay in the next
        shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    outcome = outcome_of(proc.returncode, proc.stdout)
    if outcome is None:
        sys.exit(f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return outcome, time.monotonic() - began


def copy_tree(dest: Path):
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name, ignore=SKIPPED)
        else:
            shutil.copy2(ROOT / name, dest / name)


def main() -> int:
    stale = stale_anchors()
    if stale:
        sys.exit("\n".join(stale))
    mutants = all_mutants()
    with tempfile.TemporaryDirectory(prefix="saska-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        copy_tree(tree)
        for target in sorted({target for name, _, _ in mutants for target in stages(name)}):
            outcome, seconds = run_suite(tree, target)
            print(f"unmutated tree, {target}: {outcome} in {seconds:.1f} s", flush=True)
            if outcome != "passed":
                return 1
        survivors = []
        for number, (name, label, source) in enumerate(mutants, 1):
            path = tree / "src" / "saska" / name
            original = path.read_text()
            path.write_text(source)
            total = 0.0
            try:
                for target in stages(name):
                    outcome, seconds = run_suite(tree, target)
                    total += seconds
                    if outcome != "passed":
                        break
            finally:
                path.write_text(original)
            verdict = "SURVIVED" if outcome == "passed" else f"killed ({outcome} in {target})"
            print(f"{number:2d}/{len(mutants)} {verdict}, {total:.1f} s: {label}", flush=True)
            if outcome == "passed":
                survivors.append(label)
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
