"""The mutation catalogue in tests/mutants/run.py follows the source: each
hand anchor still names one spot, the generator still finds the guards the
security argument names, and each generated mutant is a real change that
compiles.  The mutants themselves run in their own job, not here."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

MUTANTS_RUN = Path(__file__).parent / "mutants" / "run.py"
_spec = importlib.util.spec_from_file_location("mutants_run", MUTANTS_RUN)
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

# (file, enclosing function, condition): the subgroup check before Msg3 and
# before the key, confirm only at SAS_READY, the initiator's k and
# parameter-set matches, and the full-digest opening
SECURITY_GUARDS = {
    ("protocol.py", "Peer._accept_remote", "not in_subgroup(self.params, payload.public_share)"),
    ("group.py", "derive_key", "not in_subgroup(params, peer_share)"),
    ("protocol.py", "Peer.confirm", "self.phase is not Phase.SAS_READY"),
    ("protocol.py", "Peer._on_payload", "msg2.k != self.k"),
    ("protocol.py", "Peer._on_payload", "msg2.param_set_id != self.params.set_id"),
    ("commitment.py", "open_commitment", "not hmac.compare_digest(_digest(nonce, message), digest)"),
}


def test_every_hand_anchor_occurs_once():
    assert run.HAND_MUTANTS
    assert run.stale_anchors() == []


def test_generator_finds_the_security_guards():
    found = {(name, where, condition) for name, _, where, condition, _ in run.guard_mutants()}
    assert SECURITY_GUARDS - found == set()


def test_every_mutant_compiles_and_changes_its_file():
    for name, label, source in run.all_mutants():
        assert source != (run.SRC / name).read_text(), label
        compile(source, name, "exec")


def test_no_hand_mutant_is_a_generated_one():
    """A hand entry that turns a whole guard off belongs to the generator."""
    generated = {source for _, _, _, _, source in run.guard_mutants()}
    hand = [label for _, label, source in run.all_mutants() if source not in generated]
    assert hand == [reason for _, _, _, reason in run.HAND_MUTANTS]


def test_outcome_of_each_pytest_exit():
    assert run.outcome_of(0, "") == "passed"
    assert run.outcome_of(1, "") == "failed"
    assert run.outcome_of(2, "!!! Interrupted: 1 error during collection !!!") == "collection error"
    assert run.outcome_of(2, "!!! Interrupted: 2 errors during collection !!!") == "collection error"
    # an interrupt, an internal error, a usage error and no tests stop the check
    assert run.outcome_of(2, "!!! KeyboardInterrupt !!!") is None
    for code in (3, 4, 5):
        assert run.outcome_of(code, "") is None


@pytest.mark.parametrize("target,outcome", [("test_broken.py", "collection error"), (".", "failed")],
                         ids=["own-module", "suite"])
def test_a_module_that_fails_to_import_is_a_kill(tmp_path, target, outcome):
    """A test module whose import raises, as a mutant can make it, under the
    installed pytest: a mutant's own test module alone exits 2 and is a
    collection error, and the suite, where -x stops at the error, exits 1."""
    (tmp_path / "test_broken.py").write_text("raise ImportError('broken by a mutant')\n")
    (tmp_path / "test_fine.py").write_text("def test_fine():\n    pass\n")
    proc = subprocess.run([*run.PYTEST, target], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert run.outcome_of(proc.returncode, proc.stdout) == outcome, proc.stdout
