"""The three workloads: seeded op streams, expected verdicts, op executors.

The generator alone decides the operation mix, the working set, and which
operations are *bug operations* (a :mod:`repro.kernel.bugs` switch is on
for that one op).  It also records, per op, the violations the monitor
must report for it on each workload: that list is the expected-verdict
ledger the harness checks every op against.  The program under test only
ever receives the generated operations.

Each pass holds a fixed multiset of operation kinds, shuffled by the seed,
so the cost mix of a pass is the same for every seed and the seed moves
only the order and the targets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.kernel import KernelSystem, MiniOltp, bugs
from repro.kernel.net.select import Kevent
from repro.kernel.net.socket import AF_INET, POLLIN, SOCK_STREAM
from repro.kernel.types import FWRITE

# File-system op kinds.
OPEN_CLOSE = "open_close"
STAT = "stat"
READ = "read"
WRITE = "write"
EXTATTR_BUG = "extattr_bug"
# OLTP op kinds.
GET = "get"
PUT = "put"
KEVENT_BUG = "kevent_bug"

N_FILES = 32
FILE_SIZE = 256
READ_LEN = 128
ATTR = "user.bench"
N_ROWS = 64
BUG_PORT = 9000

#: One pass of the FS stream: 1000 ops, 1% bug ops.
FS_PASS_MIX = {OPEN_CLOSE: 300, STAT: 250, READ: 250, WRITE: 190, EXTATTR_BUG: 10}
#: The cold warm-up segment run during set-up: every clean kind, no bugs.
FS_WARM_MIX = {OPEN_CLOSE: 20, STAT: 16, READ: 16, WRITE: 12}
#: One pass of the OLTP stream: 196 transactions (147 GET / 49 PUT) + 2%
#: kqueue/kevent bug ops.
OLTP_PASS_MIX = {GET: 147, PUT: 49, KEVENT_BUG: 4}
OLTP_WARM_MIX = {GET: 12, PUT: 4}

EXTATTR_AUTOMATON = "MF.ufs_getextattr.prior-check"
KEVENT_AUTOMATON = "MS.sopoll.prior-check"


@dataclass(frozen=True)
class Op:
    """One generated operation and the violations it must produce."""

    kind: str
    target: int
    #: Write data (bytes) for ``write``; the query string for ``get``/``put``.
    payload: object
    #: Automata that must each report exactly one violation for this op
    #: when the monitor is on.
    expect: Tuple[str, ...]


@dataclass(frozen=True)
class Stream:
    """A workload's generated input: the warm-up segment and one pass."""

    warm: Tuple[Op, ...]
    ops: Tuple[Op, ...]


def _draw(rng: random.Random, mix: Dict[str, int], family: str,
          expect: Dict[str, Tuple[str, ...]]) -> Tuple[Op, ...]:
    kinds = [kind for kind, count in mix.items() for _ in range(count)]
    rng.shuffle(kinds)
    ops = []
    for kind in kinds:
        if family == "fs":
            target = rng.randrange(N_FILES)
            payload = rng.randbytes(FILE_SIZE) if kind == WRITE else None
        else:
            target = rng.randrange(N_ROWS)
            if kind == GET:
                payload = f"GET row{target}"
            elif kind == PUT:
                payload = f"PUT row{target} v{rng.randrange(10**6)}"
            else:
                payload = None
        ops.append(Op(kind, target, payload, expect.get(kind, ())))
    return tuple(ops)


def generate(workload: str, seed: int) -> Stream:
    """The op stream for ``workload`` and ``seed``; pure and repeatable.

    Workloads of one family (``fs-mac``/``fs-idle``) get the same stream
    for the same seed; only the expected verdicts differ.
    """
    spec = WORKLOADS[workload]
    rng = random.Random(f"{spec.family}:{seed}")
    warm = _draw(rng, spec.warm_mix, spec.family, spec.expect)
    ops = _draw(rng, spec.pass_mix, spec.family, spec.expect)
    return Stream(warm, ops)


# ---------------------------------------------------------------------------
# The file-system workloads
# ---------------------------------------------------------------------------


class FsState:
    """A booted kernel with the file working set, plus the output model."""

    def __init__(self) -> None:
        self.kernel = kernel = KernelSystem()
        self.td = td = kernel.boot()
        self.paths = [f"/tmp/bench{i}" for i in range(N_FILES)]
        #: Model of each file's contents: what a read must return.
        self.content: List[bytes] = []
        self.attrs = [f"attr{i}".encode() for i in range(N_FILES)]
        for i, path in enumerate(self.paths):
            data = bytes([i]) * FILE_SIZE
            error, fd = kernel.syscall(td, "creat", (path,))
            _expect_ok(error, "creat", path)
            _expect_ok(kernel.syscall(td, "write", (fd, data)), "write", path)
            _expect_ok(kernel.syscall(td, "close", (fd,)), "close", path)
            _expect_ok(
                kernel.syscall(td, "extattr_set", (path, ATTR, self.attrs[i])),
                "extattr_set", path,
            )
            self.content.append(data)


def run_fs_op(state: FsState, op: Op) -> bool:
    """Execute one FS op; True when every errno and output is as modelled."""
    syscall = state.kernel.syscall
    td = state.td
    path = state.paths[op.target]
    kind = op.kind
    if kind == OPEN_CLOSE:
        error, fd = syscall(td, "open", (path,))
        return error == 0 and syscall(td, "close", (fd,)) == 0
    if kind == STAT:
        error, attrs = syscall(td, "stat", (path,))
        return error == 0 and attrs["size"] == FILE_SIZE
    if kind == READ:
        error, fd = syscall(td, "open", (path,))
        if error != 0:
            return False
        error, data = syscall(td, "read", (fd, READ_LEN))
        closed = syscall(td, "close", (fd,))
        return (error == 0 and closed == 0
                and data == state.content[op.target][:READ_LEN])
    if kind == WRITE:
        error, fd = syscall(td, "open", (path, FWRITE))
        if error != 0:
            return False
        error = syscall(td, "write", (fd, op.payload))
        state.content[op.target] = op.payload
        return error == 0 and syscall(td, "close", (fd,)) == 0
    if kind == EXTATTR_BUG:
        bugs.enable("extattr_wrong_check")
        try:
            error, value = syscall(td, "extattr_get", (path, ATTR))
        finally:
            bugs.disable("extattr_wrong_check")
        return error == 0 and value == state.attrs[op.target]
    raise ValueError(f"unknown FS op kind {kind!r}")


# ---------------------------------------------------------------------------
# The OLTP workload
# ---------------------------------------------------------------------------


class OltpState:
    """A booted kernel with the MiniOltp server, plus the row model.

    Client and server are two kernel credentials driven from one thread.
    """

    def __init__(self) -> None:
        self.kernel = kernel = KernelSystem()
        kernel.boot()
        self.server = kernel.spawn(comm="srv")
        self.client = kernel.spawn(comm="cli")
        self.oltp = MiniOltp(kernel, self.server)
        #: Model of the table: what a GET must return.
        self.rows = [f"value{i}" for i in range(N_ROWS)]
        error, self.bug_fd = kernel.syscall(
            self.server, "socket", (AF_INET, SOCK_STREAM)
        )
        _expect_ok(error, "socket", "bug socket")
        _expect_ok(
            kernel.syscall(self.server, "bind",
                           (self.bug_fd, ("127.0.0.1", BUG_PORT))),
            "bind", "bug socket",
        )
        _expect_ok(kernel.syscall(self.server, "listen", (self.bug_fd,)),
                   "listen", "bug socket")


def run_oltp_op(state: OltpState, op: Op) -> bool:
    """Execute one transaction or bug op; True when outputs match the model."""
    kind = op.kind
    if kind == GET:
        return state.oltp.transaction(state.client, op.payload) == state.rows[op.target]
    if kind == PUT:
        reply = state.oltp.transaction(state.client, op.payload)
        state.rows[op.target] = op.payload.rsplit(" ", 1)[1]
        return reply == "OK"
    if kind == KEVENT_BUG:
        syscall = state.kernel.syscall
        server = state.server
        bugs.enable("kqueue_missing_mac_check")
        try:
            error, kq = syscall(server, "kqueue", ())
            if error != 0:
                return False
            error, _ = syscall(server, "kevent",
                               (kq, [Kevent(state.bug_fd, POLLIN)]))
        finally:
            bugs.disable("kqueue_missing_mac_check")
        return error == 0
    raise ValueError(f"unknown OLTP op kind {kind!r}")


def _expect_ok(result, what: str, where: str) -> None:
    error = result[0] if isinstance(result, tuple) else result
    if error != 0:
        raise RuntimeError(f"workload preparation: {what} {where} -> errno {error}")


# ---------------------------------------------------------------------------
# The workload table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    #: Table-1 assertion sets installed, by name.
    sets: Tuple[str, ...]
    #: TeslaRuntime keyword arguments beyond ``policy=LogAndContinue()``.
    runtime_kwargs: Dict[str, object]
    #: Whether the runtime journals to a file (replayed after the run).
    journal: bool
    #: op kind -> automata that must report one violation each.
    expect: Dict[str, Tuple[str, ...]]
    warm_mix: Dict[str, int]
    pass_mix: Dict[str, int]
    make_state: Callable[[], object]
    run_op: Callable[[object, Op], bool]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fs-mac", "fs", ("All",), {}, False,
                 {EXTATTR_BUG: (EXTATTR_AUTOMATON,)},
                 FS_WARM_MIX, FS_PASS_MIX, FsState, run_fs_op),
        # The same stream under P + Infrastructure: those automata share
        # the syscall bound but no FS op steps them, so bug ops must
        # produce no violation here.
        Workload("fs-idle", "fs", ("P", "Infrastructure"), {}, False, {},
                 FS_WARM_MIX, FS_PASS_MIX, FsState, run_fs_op),
        Workload("oltp-journal", "oltp", ("All",), {"deferred": "manual"}, True,
                 {KEVENT_BUG: (KEVENT_AUTOMATON,)},
                 OLTP_WARM_MIX, OLTP_PASS_MIX, OltpState, run_oltp_op),
    )
}
