"""Span recording around saska's layer functions, installed from outside.

`install()` replaces module globals and class attributes of the imported
`saska` modules with timing wrappers; nothing under `src/` is edited.  A
function is replaced everywhere it was imported by name, because the
modules bind each other's functions at import time (`protocol` calls its
own `in_subgroup` global, not `group.in_subgroup`).

Every call of a wrapped function becomes a span: operation id, span id,
parent span id, name, start and end (`time.perf_counter_ns`), whether it
returned or raised, and its self time (its duration minus the time covered
by its wrapped children).  Totals per span name are kept for every span;
the spans themselves are kept in memory up to `max_spans` and written out
by `write_spans`.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter_ns

# span name -> (module, attribute) or (module, class, method).  Names that
# start with an underscore are private hooks a refactor may delete; every
# entry is optional and an absent one is reported, not fatal.
FUNCTIONS = {
    "group.gen_private_share": ("saska.group", "gen_private_share"),
    "group.pub_share": ("saska.group", "pub_share"),
    "group.in_subgroup": ("saska.group", "in_subgroup"),
    "group.derive_key": ("saska.group", "derive_key"),
    "commitment.commit": ("saska.commitment", "commit"),
    "commitment.open": ("saska.commitment", "open_commitment"),
    "protocol.encode_message": ("saska.protocol", "encode_message"),
    "protocol.encode_payload": ("saska.protocol", "encode_payload"),
    "protocol.decode_message": ("saska.protocol", "decode_message"),
    "protocol.decode_payload": ("saska.protocol", "decode_payload"),
    "protocol.init_initiator": ("saska.protocol", "init_initiator"),
    "protocol.responder_on_commit": ("saska.protocol", "responder_on_commit"),
    "protocol.initiator_on_payload": ("saska.protocol", "initiator_on_payload"),
    "protocol.responder_on_decommit": ("saska.protocol", "responder_on_decommit"),
    "protocol.confirm": ("saska.protocol", "confirm"),
    "transport.send_frame": ("saska.transport", "MemoryChannel", "send_frame"),
    "transport.dispatch": ("saska.transport", "_Router", "dispatch"),
    "transport.recv_frame": ("saska.transport", "MemoryChannel", "recv_frame"),
    "transport.connect": ("saska.transport", "connect_stream"),
    "transport.accept": ("saska.transport", "StreamListener", "accept"),
    "transport.stream_send": ("saska.transport", "StreamChannel", "send_frame"),
    "transport.stream_recv": ("saska.transport", "StreamChannel", "recv_frame"),
    "adversary.child_rngs": ("saska.adversary", "_child_rngs"),
    "adversary.run_mitm_trial": ("saska.adversary", "run_mitm_trial"),
    "adversary.make_attacker": ("saska.adversary", "make_attacker"),
    "adversary.key_with_a": ("saska.adversary", "_Attacker", "key_with_a"),
    "adversary.key_with_b": ("saska.adversary", "_Attacker", "key_with_b"),
    "cli.run_peer": ("saska.cli", "run_peer"),
}

# Every class in this module that defines __call__ is an attacker callback.
CALLBACK_MODULE = "saska.adversary"
CALLBACK_SPAN = "adversary.callback"


class Tracer:
    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.op = 0
        self.names: list[str] = []
        self.totals: dict[str, list[int]] = {}  # name -> [calls, returned, self_ns]
        self.missing: list[str] = []
        self._next_span = 0
        self._stack: list[list[int]] = []  # [span id, child_ns] of the open spans
        self._cols = {c: array("q") for c in ("op", "span", "parent", "name", "start", "end", "self", "ok")}

    def wrap(self, name: str, fn):
        totals = self.totals.setdefault(name, [0, 0, 0])
        name_id = len(self.names)
        self.names.append(name)
        stack, cols = self._stack, self._cols

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [self._next_span, 0]
            self._next_span += 1
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            ok = 0
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = 1
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                self_ns = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                totals[0] += 1
                totals[1] += ok
                totals[2] += self_ns
                if len(cols["op"]) < self.max_spans:
                    for col, v in zip(cols.values(), (self.op, frame[0], parent, name_id, start, end, self_ns, ok)):
                        col.append(v)

        return wrapper

    def reset(self):
        """Forget spans and totals recorded so far (after a warm-up)."""
        for totals in self.totals.values():
            totals[:] = [0, 0, 0]
        for col in self._cols.values():
            del col[:]

    def write_spans(self, path: str):
        cols = self._cols
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_ns,end_ns,self_ns,returned\n")
            for op, span, parent, name_id, start, end, self_ns, ok in zip(*cols.values()):
                fh.write(f"{op},{span},{parent},{self.names[name_id]},{start},{end},{self_ns},{ok}\n")


def _replace_everywhere(original, replacement):
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "saska" or mod_name.startswith("saska."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer function that exists in the imported saska."""
    for name, target in FUNCTIONS.items():
        try:
            owner = importlib.import_module(target[0])
            for attr in target[1:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, target[-1])
        except (ImportError, AttributeError):
            tracer.missing.append(name)
            continue
        wrapped = tracer.wrap(name, original)
        if isinstance(owner, type):
            setattr(owner, target[-1], wrapped)
        else:
            _replace_everywhere(original, wrapped)
    callbacks = 0
    for value in list(vars(importlib.import_module(CALLBACK_MODULE)).values()):
        if isinstance(value, type) and "__call__" in vars(value):
            value.__call__ = tracer.wrap(CALLBACK_SPAN, vars(value)["__call__"])
            callbacks += 1
    if not callbacks:
        tracer.missing.append(CALLBACK_SPAN)
    return tracer
