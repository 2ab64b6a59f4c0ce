import io
import os
import random
import secrets
import signal
import socket
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from saska import adversary, cli, group, protocol
from saska.cli import EXIT_REJECTED, EXIT_TAMPER, EXIT_TIMEOUT, EXIT_TRANSPORT, main
from saska.errors import Timeout
from saska.group import DhParams, PARAM_SETS
from saska.protocol import Peer, Role, format_sas
from saska.transport import StreamListener, connect_stream


def find_free_port() -> int:
    with socket.socket() as s:
        s.bind(("", 0))
        return s.getsockname()[1]


def respond(chan, peer: Peer):
    """Answer the frames on chan with peer until its SAS is ready."""
    while peer.sas is None:
        for frame in peer.receive(chan.recv_frame(5.0)):
            chan.send_frame(frame)


class CliThread(threading.Thread):
    def __init__(self, argv):
        super().__init__()
        self.argv = argv
        self.exit_code = None

    def run(self):
        self.exit_code = main(self.argv)


class TestResolveParams:
    def test_named_set(self):
        assert cli._resolve_params("test") == PARAM_SETS["test"]

    def test_default(self, monkeypatch):
        monkeypatch.delenv(cli.PARAMS_ENV_VAR, raising=False)
        assert cli._resolve_params(None) == PARAM_SETS["p40"]

    def test_file(self, tmp_path):
        path = tmp_path / "g.params"
        path.write_text("23\n11\n2\n")
        assert cli._resolve_params(str(path)) == DhParams(23, 11, 2)

    def test_env_var(self, tmp_path, monkeypatch):
        path = tmp_path / "g.params"
        path.write_text("23\n11\n2\n")
        monkeypatch.setenv(cli.PARAMS_ENV_VAR, str(path))
        assert cli._resolve_params(None) == DhParams(23, 11, 2)

    def test_garbage(self):
        with pytest.raises(ValueError):
            cli._resolve_params("no-such-set-or-file")


def cli_env(**overrides) -> dict:
    env = dict(os.environ)
    env.pop(cli.PARAMS_ENV_VAR, None)
    env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.update(overrides)
    return env


def run_cli(args, **env_overrides):
    return subprocess.run([sys.executable, "-m", "saska.cli", *args], env=cli_env(**env_overrides),
                          capture_output=True, text=True, timeout=30, stdin=subprocess.DEVNULL)


class TestArgumentErrors:
    """A bad argument is a usage error: exit 2, one error line, no traceback."""

    @pytest.mark.parametrize("args", [
        ["--listen", "0", "--id", "a", "--params", "nosuch"],
        ["--connect", "127.0.0.1:notaport", "--id", "b"],
        ["--connect", "127.0.0.1", "--id", "b"],
        ["--connect", "127.0.0.1:0", "--id", "b"],
        ["--listen", "70000", "--id", "a"],
        ["--listen", "0", "--id", "a", "--k", "0"],
        ["--listen", "0", "--id", ""],
        ["sim", "--strategy", "honest", "--params", "nosuch"],
        ["sim", "--strategy", "full-mitm", "--k", "-1", "--exhaustive", "--params", "test"],
        ["--listen", "0", "--id", "bob\x1b[8m"],
        ["--listen", "0", "--id", "a", "--timeout", "-1"],
        ["--listen", "0", "--id", "a", "--timeout", "0"],
        ["--listen", "0", "--id", "a", "--timeout", "nan"],
        ["--listen", "0", "--id", "a", "--timeout", "inf"],
        ["--connect", "127.0.0.1:9", "--id", "b", "--timeout", "-1"],
        ["--connect", "127.0.0.1:9", "--id", "b", "--timeout", "1e300"],
        ["--listen", "0", "--id", "a" * 65],
    ])
    def test_usage_error(self, args):
        proc = run_cli(args)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("usage: ")
        assert len([line for line in proc.stderr.splitlines() if "error:" in line]) == 1
        assert proc.stdout == ""

    def test_invalid_params_file_from_env(self, tmp_path):
        path = tmp_path / "bad.params"
        path.write_text("29\n7\n5\n")  # 5 is not in the order-7 subgroup
        proc = run_cli(["--listen", "0", "--id", "a"], **{cli.PARAMS_ENV_VAR: str(path)})
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "g of 3 bits: g^q mod p != 1" in proc.stderr

    @pytest.mark.parametrize("mode", [["--listen", "0", "--id", "a"], ["sim", "--strategy", "honest"]],
                             ids=["peer", "sim"])
    @pytest.mark.parametrize("p_line", [str(53 ** 2095), "9" * 4400],
                             ids=["12000-bit-composite", "4400-digit-line"])
    def test_oversize_params_file_refused_before_primality(self, tmp_path, monkeypatch, capsys,
                                                            mode, p_line):
        """A p above 8,192 bits is a short usage error before any
        Miller-Rabin round: 53^2095 is an odd 12,000-bit composite with no
        factor up to 47, and 4,400 digits exceed Python's int() limit."""
        path = tmp_path / "big.params"
        path.write_text(f"{p_line}\n11\n2\n")
        calls = []
        monkeypatch.setattr(group, "is_probable_prime", calls.append)
        with pytest.raises(SystemExit) as excinfo:
            main([*mode, "--params", str(path)])
        assert excinfo.value.code == 2
        assert calls == []
        out, err = capsys.readouterr()
        assert out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and len(errors[0]) < 200

    @pytest.mark.parametrize("text", [
        pytest.param(f"{3 ** 5000}\n11\n2\n", id="p-not-prime"),
        pytest.param(f"{2 ** 1279 - 1}\n5\n2\n", id="q-does-not-divide-p-1"),
        pytest.param(f"23\n11\n{10 ** 2000}\n", id="g-out-of-range"),
        pytest.param("23\n" + "9" * 2000 + "x\n2\n", id="non-integer-line"),
    ])
    def test_rejected_params_file_is_one_short_line(self, tmp_path, capsys, text):
        """An error names the field and its bit length, or the line number,
        and never echoes a number or a line of the file."""
        path = tmp_path / "bad.params"
        path.write_text(text)
        with pytest.raises(SystemExit) as excinfo:
            main(["--listen", "0", "--id", "a", "--params", str(path)])
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and len(errors[0]) < 200, errors

    def test_checked_before_connecting(self):
        listener = StreamListener(0)
        try:
            with pytest.raises(SystemExit) as excinfo:
                main(["--connect", f"127.0.0.1:{listener.port}", "--id", "bob", "--k", "65"])
            assert excinfo.value.code == 2
            with pytest.raises(Timeout):
                listener.accept(0.2)
        finally:
            listener.close()


class TestSim:
    def test_exhaustive_impersonate_responder_k3(self, capsys):
        code = main(["sim", "--strategy", "impersonate-responder", "--k", "3",
                     "--exhaustive", "--params", "test", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rate=0.125" in out
        assert "result=pass" in out
        assert "mode=exhaustive" in out

    def test_guess_value_reaches_the_run(self, capsys, monkeypatch):
        strategies = []
        real = adversary.exhaustive_attack_success
        monkeypatch.setattr(adversary, "exhaustive_attack_success",
                            lambda strategy, *a, **kw: strategies.append(strategy) or real(strategy, *a, **kw))
        code = main(["sim", "--strategy", "full-mitm", "--k", "3", "--exhaustive",
                     "--params", "test", "--seed", "1", "--guess-value", "13"])
        out = capsys.readouterr().out
        assert code == 0
        assert [s.fixed_guess for s in strategies] == [13]
        # 13 is wider than k = 3; the attacker keeps its low bits, 5, so
        # exactly one of the eight trials wins
        assert "successes=1 " in out and "result=pass" in out

    def test_honest_completeness(self, capsys):
        code = main(["sim", "--strategy", "honest", "--trials", "100",
                     "--params", "test", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "successes=100" in out
        assert "rate=1" in out
        assert "mode=honest" in out

    def test_seeded_runs_are_deterministic(self, capsys):
        args = ["sim", "--strategy", "full-mitm", "--k", "8", "--trials", "2000",
                "--params", "test", "--seed", "42"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_montecarlo_report_fields(self, capsys):
        code = main(["sim", "--strategy", "impersonate-initiator", "--k", "8",
                     "--trials", "2000", "--params", "test", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        kv = [l for l in out.splitlines() if l.startswith("strategy=")][0]
        for field in ("strategy=", "k=", "trials=", "successes=", "rate=",
                      "ci_low=", "ci_high=", "bound=", "result="):
            assert field in kv

    def test_exhaustive_and_montecarlo_together(self, capsys):
        code = main(["sim", "--strategy", "impersonate-responder", "--k", "3",
                     "--exhaustive", "--trials", "1500", "--params", "test", "--seed", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mode=exhaustive" in out and "mode=montecarlo" in out

    def test_invalid_strategy_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["sim", "--strategy", "replay-everything"])
        assert excinfo.value.code == 2

    def test_invalid_strategy_in_fresh_process(self):
        # in-process tests run with saska.adversary already imported, so only
        # a fresh interpreter catches a name the lazy sim parser lacks
        proc = run_cli(["sim", "--strategy", "bogus"])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("usage: saska sim")
        assert ("choose from 'full-mitm', 'honest', 'impersonate-initiator', "
                "'impersonate-responder'") in proc.stderr
        assert proc.stdout == ""

    def test_exhaustive_k_too_large(self, capsys):
        code = main(["sim", "--strategy", "full-mitm", "--k", "20",
                     "--exhaustive", "--params", "test", "--seed", "1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_too_few_attack_trials(self, capsys):
        code = main(["sim", "--strategy", "full-mitm", "--k", "8",
                     "--trials", "10", "--params", "test", "--seed", "1"])
        assert code == 2

    @pytest.mark.parametrize("args,message", [
        (["--strategy", "full-mitm", "--k", "12", "--exhaustive", "--trials", "10"],
         "error: need at least 1000 trials for a meaningful rate, got 10"),
        (["--strategy", "honest", "--k", "10", "--exhaustive", "--trials", "0"],
         "error: trials must be positive"),
    ], ids=["attack-trials-below-1000", "zero-honest-trials"])
    def test_bad_trials_refused_before_any_trial(self, capsys, monkeypatch, args, message):
        calls = []
        real = adversary._run_trial
        monkeypatch.setattr(adversary, "_run_trial",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        code = main(["sim", *args, "--params", "test", "--seed", "1"])
        assert code == 2
        assert capsys.readouterr().err == message + "\n"
        assert calls == []

    def test_rate_above_bound_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(adversary, "exhaustive_attack_success",
                            lambda *args, **kwargs: Fraction(2, 8))
        code = main(["sim", "--strategy", "full-mitm", "--k", "3",
                     "--exhaustive", "--params", "test", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "successes=2" in out and "result=fail" in out


class TestPeerExitCodes:
    def test_connection_refused(self, capsys):
        port = find_free_port()
        code = main(["--connect", f"127.0.0.1:{port}", "--id", "bob", "--params", "test"])
        assert code == EXIT_TRANSPORT

    def test_busy_port_is_one_transport_error_line(self):
        """With warnings as errors, a listening socket left unclosed after
        its bind failed would add a ResourceWarning to the error line."""
        with socket.create_server(("", 0)) as holder:
            port = holder.getsockname()[1]
            proc = run_cli(["--listen", str(port), "--id", "alice", "--timeout", "1"],
                           PYTHONWARNINGS="error")
        assert proc.returncode == EXIT_TRANSPORT
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("transport error:"), proc.stderr

    def test_silent_peer_times_out(self):
        listener = StreamListener(0)
        accepted = []

        def silent_server():
            accepted.append(listener.accept(5.0))

        t = threading.Thread(target=silent_server)
        t.start()
        code = main(["--connect", f"127.0.0.1:{listener.port}", "--id", "bob",
                     "--params", "test", "--timeout", "0.2"])
        t.join()
        accepted[0].close()
        listener.close()
        assert code == EXIT_TIMEOUT

    def test_garbage_reply_is_tamper_exit(self):
        listener = StreamListener(0)

        def bad_server():
            chan = listener.accept(5.0)
            chan.recv_frame(5.0)  # discard msg1
            chan.send_frame(bytes([0x07]) + (3).to_bytes(4, "big") + b"abc")
            chan.close()

        t = threading.Thread(target=bad_server)
        t.start()
        code = main(["--connect", f"127.0.0.1:{listener.port}", "--id", "bob",
                     "--params", "test", "--timeout", "2"])
        t.join()
        listener.close()
        assert code == EXIT_TAMPER

    def test_oversized_share_is_tamper_exit(self, capsys, test_params):
        """A Msg2 whose share has 2,000 octets, past the digits int-to-str
        allows, is refused like any share outside the subgroup."""
        listener = StreamListener(0)
        big_share = (1 << 16000) - 1

        def bad_server():
            chan = listener.accept(5.0)
            chan.recv_frame(5.0)  # discard msg1
            payload = protocol.PairingPayload("mallory", big_share, 0)
            chan.send_frame(protocol.encode_message(protocol.Msg2(test_params.set_id, 20, payload)))
            chan.close()

        t = threading.Thread(target=bad_server)
        t.start()
        code = main(["--connect", f"127.0.0.1:{listener.port}", "--id", "bob",
                     "--params", "test", "--timeout", "2"])
        t.join()
        listener.close()
        assert code == EXIT_TAMPER
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and len(lines[0]) < 200, lines
        assert lines[0] == "protocol violation: responder share of 16000 bits rejected"

    def test_tampered_decommit_aborts_responder(self, monkeypatch, capsys, test_params):
        monkeypatch.setattr("sys.stdin", io.StringIO("y\n"))
        port = find_free_port()
        peer = CliThread(["--listen", str(port), "--id", "alice",
                          "--params", "test", "--timeout", "5"])
        peer.start()
        # a refused connect returns at once, so pause between attempts
        # until the CLI thread has bound its port
        chan = None
        deadline = time.monotonic() + 5.0
        while chan is None and time.monotonic() < deadline:
            try:
                chan = connect_stream("127.0.0.1", port, timeout=0.1)
            except OSError:
                time.sleep(0.02)
        assert chan is not None, f"CLI peer never listened on port {port}"
        mallory = Peer(Role.INITIATOR, test_params, "mallory", 20, random.Random(1))
        for frame in mallory.start():
            chan.send_frame(frame)
        (msg3,) = mallory.receive(chan.recv_frame(5.0))
        frame = bytearray(msg3)
        frame[10] ^= 0x01  # flip one bit of the decommit nonce
        chan.send_frame(bytes(frame))
        peer.join()
        chan.close()
        assert peer.exit_code == EXIT_TAMPER

    def test_operator_rejection(self, monkeypatch, capsys, test_params):
        monkeypatch.setattr("sys.stdin", io.StringIO("n\n"))
        listener = StreamListener(0)
        box = {}

        def responder():
            chan = listener.accept(5.0)
            peer = Peer(Role.RESPONDER, test_params, "alice", 20, random.Random(2))
            respond(chan, peer)
            box["sas"] = peer.sas
            chan.close()

        t = threading.Thread(target=responder)
        t.start()
        code = main(["--connect", f"127.0.0.1:{listener.port}", "--id", "bob",
                     "--params", "test", "--timeout", "5"])
        t.join()
        listener.close()
        out = capsys.readouterr().out
        assert code == EXIT_REJECTED
        assert "fingerprint" not in out
        assert f"alice : {format_sas(box['sas'])}" in out

    def test_ctrl_c_at_prompt_rejects(self, monkeypatch, capsys, test_params):
        class Interrupted:
            def readline(self):
                raise KeyboardInterrupt

        calls = []
        real = protocol.derive_key

        def spy(params, peer_share, x):
            calls.append(peer_share)
            return real(params, peer_share, x)

        monkeypatch.setattr(protocol, "derive_key", spy)
        monkeypatch.setattr("sys.stdin", Interrupted())
        listener = StreamListener(0)
        box = {}

        def responder():
            chan = listener.accept(5.0)
            peer = Peer(Role.RESPONDER, test_params, "alice", 20, random.Random(2))
            respond(chan, peer)
            box["sas"] = peer.sas
            chan.close()

        t = threading.Thread(target=responder)
        t.start()
        code = main(["--connect", f"127.0.0.1:{listener.port}", "--id", "bob",
                     "--params", "test", "--timeout", "5"])
        t.join()
        listener.close()
        captured = capsys.readouterr()
        assert code == EXIT_REJECTED
        assert "fingerprint" not in captured.out
        assert f"alice : {format_sas(box['sas'])}" in captured.out
        assert "rejected by operator; no key derived" in captured.err
        assert calls == []

    def test_ctrl_c_while_listening_rejects(self):
        # a shell that starts the suite in the background leaves SIGINT
        # ignored; restore the default so the CLI turns it into Ctrl-C
        proc = subprocess.Popen(
            [sys.executable, "-m", "saska.cli", "--listen", "0", "--id", "alice", "--timeout", "5"],
            env=cli_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            assert proc.stdout.readline().startswith("listening :")
            time.sleep(0.3)  # let it block in accept
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == EXIT_REJECTED
        assert "Traceback" not in err
        assert "rejected by operator; no key derived" in err

    def test_full_pairing_connect_side(self, monkeypatch, capsys, test_params):
        monkeypatch.setattr("sys.stdin", io.StringIO("y\n"))
        listener = StreamListener(0)
        box = {}

        def responder():
            chan = listener.accept(5.0)
            peer = Peer(Role.RESPONDER, test_params, "alice", 20, random.Random(2))
            respond(chan, peer)
            box["sas"] = peer.sas
            chan.close()

        t = threading.Thread(target=responder)
        t.start()
        code = main(["--connect", f"127.0.0.1:{listener.port}", "--id", "bob",
                     "--params", "test", "--timeout", "5"])
        t.join()
        listener.close()
        out = capsys.readouterr().out
        assert code == 0
        assert f"alice : {format_sas(box['sas'])}" in out
        assert "fingerprint: " in out

    def test_pairing_peer_draws_from_os_entropy(self, monkeypatch, test_params):
        built, draws = [], []
        real = secrets.SystemRandom.getrandbits

        def build(*args, **kwargs):
            built.append(Peer(*args, **kwargs))
            return built[-1]

        def getrandbits(self, k):
            draws.append(k)
            return real(self, k)

        monkeypatch.setattr(cli, "Peer", build)
        monkeypatch.setattr(secrets.SystemRandom, "getrandbits", getrandbits)
        monkeypatch.setattr("sys.stdin", io.StringIO("y\n"))
        listener = StreamListener(0)

        def responder():
            chan = listener.accept(5.0)
            respond(chan, Peer(Role.RESPONDER, test_params, "alice", 20, random.Random(2)))
            chan.close()

        t = threading.Thread(target=responder)
        t.start()
        code = main(["--connect", f"127.0.0.1:{listener.port}", "--id", "bob",
                     "--params", "test", "--timeout", "5"])
        t.join()
        listener.close()
        assert code == 0
        (peer,) = built
        assert isinstance(peer.rng, secrets.SystemRandom)
        # the private share takes at least one draw, then the k-bit nonce
        # and the commitment's 256-bit opening nonce
        assert len(draws) >= 3 and draws[-2:] == [20, 256]

    def test_identity_flag_required(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--connect", "127.0.0.1:1"])
        assert excinfo.value.code == 2
