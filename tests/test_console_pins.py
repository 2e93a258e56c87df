"""Every pinned output of the console tool, as one table.

A row is one ``eqcolor`` command: its arguments, its stdin and what it must
give back (an exit status, the sha256 of its stdout, JSON fields equal to a
value to the last bit, a structure check, or the stdout of another row).
Rows run in process through ``cli.run_cli``; a row with a timeout runs as
``python -m eqcolor`` in a child process under it, so that a run that
would hang fails instead.  To add a pin, add one row whose expected bytes
or values are what the code before the change writes; a change that moves
a pinned output edits its row and says why.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional
from unittest import mock

import pytest

from eqcolor import cli
from eqcolor.cli import run_cli

# the calibration instance of the Monte Carlo tests, and the exact oracle's
# mono-edge and chain-event values on it at r = 2, to the last bit; the
# oracle's own test reads them with every production kernel and predicate
# banned
TRI_PAIR_TEXT = "6 3 3\n0 1 2\n2 3 4\n1 4 5\n"
TRI_PAIR_MONO_EDGE = 0.416341849750086
TRI_PAIR_CHAIN_EVENT = 0.008017001787568272


@dataclass(frozen=True)
class Row:
    """``argv`` is split on spaces, and a word ``@name`` stands for a file
    holding row ``name``'s stdout.  stdin is ``stdin``, or row ``pipe``'s
    stdout.  ``fields`` maps a dotted path into the stdout's JSON to its
    value; ``check`` takes that JSON.  A row that exits 1 must write an
    ``error:`` line.  ``timeout`` is in seconds."""

    argv: str
    stdin: str = ""
    pipe: Optional[str] = None
    status: int = 0
    sha256: Optional[str] = None
    fields: dict = field(default_factory=dict)
    check: Optional[Callable[[dict], bool]] = None
    same_as: Optional[str] = None
    timeout: Optional[int] = None


def _plan_w_in_v(report):
    # each W_i of the rebalance plan is a sorted list inside V_i
    plan = report["plan"]
    return (
        plan is not None
        and plan["W"] is not None
        and len(plan["W"]) == len(plan["V"]) == 2
        and all(w == sorted(w) and set(w) <= set(v) for w, v in zip(plan["W"], plan["V"]))
    )


def _a_two_edge_chain(report):
    # a chain of two edges linked through one deflected vertex
    return any(len(c["edges"]) == 2 and len(c["links"]) == 1 for c in report["chains"])


def _sizes_within_one(coloring):
    sizes = coloring["sizes"]
    return len(sizes) == 25600 and max(sizes) - min(sizes) <= 1


def _zeros(sep):
    # a token of 5000 leading zeros, which int() refuses at its digit limit
    return "4 2 1\n" + "0" * 5000 + "1" + sep + "2\n"


ROWS = {
    # a JSON instance from gen, byte for byte
    "gen-json": Row(
        "gen -m 12 -n 3 --edges 8 --seed 42 --format json",
        sha256="9c35d546ba249163a314250157840a4d986cbe1774a4c59eb5ac4adba28f20d0",
    ),
    # the text reader: a float id exits 1, and a tab-separated body is read
    # line by line and solved
    "float-id": Row("solve - -r 2", stdin="3 2 1\n0 2.5\n", status=1),
    "tab-body": Row("solve - -r 2", stdin="4 2 3\n0\t1\n1\t2\n2\t3\n"),
    # 5000 leading zeros exit 1 whether a space or a tab follows them
    "zeros-space": Row("solve - -r 2", stdin=_zeros(" "), status=1),
    "zeros-tab": Row("solve - -r 2", stdin=_zeros("\t"), status=1),
    # the oracle's budget check never builds 3^(2^31): the CLI stops at its
    # vertex cap at once
    "oracle-huge-header": Row("oracle - -r 3", stdin="2147483648 3 0\n", status=1, timeout=10),
    # and -r 1, which passes the budget check (1^m), stops at the vertex cap
    # instead of building an O(m) coloring
    "oracle-one-color": Row("oracle - -r 1", stdin="10000001 2 0\n", status=1, timeout=10),
    # greedy repair drops a class from its over- and under-target sets when
    # it reaches its target, so r = 25600 on an edgeless instance costs no
    # rescan per move
    "repair-wide": Row(
        "solve - -r 25600 --format json",
        stdin="100000 2 0\n",
        check=_sizes_within_one,
        timeout=20,
    ),
    # above 128 colors a weight's slot comes from one searchsorted
    "mc-wide": Row(
        "mc - -r 100000 --quantity mono-edge --trials 2", stdin="1000000 2 0\n", timeout=20
    ),
    # a two-stage solve that rebalances explains its plan; colorings are
    # stored narrow (int8 here) and serialize as plain ints
    "gen-1000": Row("gen -m 1000 -n 6 --edges 1200 --seed 1"),
    "rebalanced": Row(
        "solve - -r 3 --explain --format json",
        pipe="gen-1000",
        sha256="f61aede411cc7645d5e6ed3ac0375af1956962888e313d0bd5b62c28838fc006",
        check=_plan_w_in_v,
    ),
    "gen-250": Row("gen -m 250 -n 6 --edges 125 --seed 3"),
    "repaired": Row(
        "solve - -r 3 --format json",
        pipe="gen-250",
        sha256="677c8cfb6a1c933160d8372d6119f41bc80f0da78ce9486b85b308a96c1a5f26",
    ),
    # the plan at the scale of the benchmark's solve-sparse workload: V
    # sizes 2360/2432/2359, W sizes 1027/1180/1174, one dangerous edge
    "gen-100000": Row("gen -m 100000 -n 8 --edges 10000 --seed 4"),
    "rebalanced-100000": Row(
        "solve - -r 4 --explain --format json",
        pipe="gen-100000",
        sha256="be8c8ee894c7022432ae0aff0612c94ca804a0d4a32de68f9ad2d5eff415d1a9",
    ),
    # the one-pass text reader and the JSON reader build the same
    # hypergraph at that scale: their solves write the same bytes
    "gen-scale-text": Row("gen -m 100000 -n 8 --edges 10000 --seed 3"),
    "gen-scale-json": Row("gen -m 100000 -n 8 --edges 10000 --seed 3 --format json"),
    "solve-scale-text": Row("solve - -r 4 --seed 1", pipe="gen-scale-text"),
    "solve-scale-json": Row(
        "solve - -r 4 --seed 1", pipe="gen-scale-json", same_as="solve-scale-text"
    ),
    # at seed 15 the last rejected attempt ends on the chains (964, 322),
    # linked through 447, and (781): the walk crosses one deflected vertex;
    # the report replays the attempt and validates each chain on first read
    "chains": Row(
        "solve - -r 3 --seed 15 --explain --format json",
        pipe="gen-1000",
        sha256="3e947f2ff600c78bf8db5a42d5feaacea393d78734fadfaa47cbd9cf6317230e",
        check=_a_two_edge_chain,
    ),
    # an exhausted report whose last batch is all rejected exits 2; its
    # chains (311), (619) and (791) come from the last attempt's row of the
    # screen's mask
    "exhausted": Row(
        "solve - -r 3 --seed 3 --restarts 2 --explain --format json",
        pipe="gen-1000",
        status=2,
        sha256="2a7297f459e85ad617de61a62bf8f5b97632c406d9eafba2899cb5f37650ca3f",
    ),
    # at n |E| = 22 000 cells per attempt a batch holds at most 5 attempts
    # (1, 4, 5, 5, ...); accepted on attempt 16 after 15 rejections, with
    # the report the 1, 2, 2, ... schedule gave
    "gen-capped": Row("gen -m 1000 -n 10 --edges 2200 --seed 1"),
    "capped-batches": Row(
        "solve - -r 2 --explain --format json",
        pipe="gen-capped",
        sha256="59d7323e6158513df1b5ba06da0ce47a3cced217095f68298fa81e38b77a5b48",
    ),
    # with repair off, a proper attempt whose shortage is not confined to
    # color r counts under rebalance-infeasible: the counters partition
    # the 5 attempts
    "gen-500": Row("gen -m 500 -n 8 --edges 400 --seed 1"),
    "no-repair": Row(
        "solve - -r 4 --no-repair --restarts 5 --format json",
        pipe="gen-500",
        status=2,
        fields={
            "attempts": 5,
            "diagnostics.mono-edge": 0,
            "diagnostics.rebalance-infeasible": 5,
            "diagnostics.repair-failed": 0,
        },
    ),
    # a balanced-route solve writes a coloring that verify accepts
    "gen-small": Row("gen -m 12 -n 3 --edges 6 --seed 2"),
    "balanced": Row(
        "solve - -r 3 --force-path balanced-only",
        pipe="gen-small",
        sha256="2670f79fd295f8b4811b5881908b27ea7a1ba3275fc33b3278b3b396fefc8608",
    ),
    "verify-balanced": Row("verify @gen-small @balanced"),
    # the exact oracle's mono-edge and chain-event values on the
    # calibration instance; the chain pass drops the orders that break a link
    "mc-mono-edge-exact": Row(
        "mc - -r 2 --quantity mono-edge --trials 1000 --seed 0 --format json",
        stdin=TRI_PAIR_TEXT,
        fields={"comparison.kind": "exact", "comparison.value": TRI_PAIR_MONO_EDGE},
    ),
    "mc-chain-event-exact": Row(
        "mc - -r 2 --quantity chain-event --edges 0,1 --color 2 --trials 1000 --seed 0 --format json",
        stdin=TRI_PAIR_TEXT,
        fields={"comparison.kind": "exact", "comparison.value": TRI_PAIR_CHAIN_EVENT},
    ),
    # the chain-event estimates there: one edge in large_1, and two edges
    # linked through a small_1 vertex
    "mc-chain-event-one-edge": Row(
        "mc - -r 2 --quantity chain-event --edges 0 --color 1 --trials 20000 --seed 0 --format json",
        stdin=TRI_PAIR_TEXT,
        fields={"estimate": 0.07575},
    ),
    "mc-chain-event-two-edges": Row(
        "mc - -r 2 --quantity chain-event --edges 0,1 --color 2 --trials 20000 --seed 0 --format json",
        stdin=TRI_PAIR_TEXT,
        fields={"estimate": 0.0084},
    ),
    # the oracle's deflection value at the (m, r) = (7, 2) shape of the
    # benchmark's exact-small workload: one vertex is watched, so states
    # that differ only elsewhere merge; and the estimate, read off the
    # kernel's deflected pairs
    "gen-7": Row("gen -m 7 -n 3 --edges 6 --seed 2"),
    "mc-deflected": Row(
        "mc - -r 2 --quantity deflected --v 0 --trials 1000 --seed 0 --format json",
        pipe="gen-7",
        fields={
            "comparison.kind": "exact",
            "comparison.value": 0.10172020139270915,
            "estimate": 0.119,
        },
    ),
    # 2000 trials at m = 1000, n = 8, |E| = 400 run as 25 sub-batches of at
    # most 81 trials; the split changes no draw
    "gen-mc": Row("gen -m 1000 -n 8 --edges 400 --seed 3"),
    "mc-mono-edge": Row(
        "mc - -r 3 --quantity mono-edge --trials 2000 --seed 5 --format json",
        pipe="gen-mc",
        fields={"estimate": 0.076},
    ),
    # the two quantities whose statistics read the batch's slots and keep
    # draws or its class counts, on the same draws
    "mc-dangerous-count": Row(
        "mc - -r 3 --quantity dangerous-count --trials 2000 --seed 5 --format json",
        pipe="gen-mc",
        fields={"estimate": 8.6725},
    ),
    "mc-excess-pattern": Row(
        "mc - -r 3 --quantity excess-pattern --trials 2000 --seed 5 --format json",
        pipe="gen-mc",
        fields={"estimate": 0.8165},
    ),
    # the same draws at p = 0.5, where the fixed point settles every trial:
    # the mean deflections out of small_2, read off the pairs
    "mc-fixpoint": Row(
        "mc - -r 3 --quantity expected-deflections --i 2 --p 0.5 --trials 2000 --seed 5 --format json",
        pipe="gen-mc",
        fields={"estimate": 0.355},
    ),
    # a balanced draw's estimate, on the instance of the balanced solve;
    # the draw is the solver's (Generator.permuted rows cut at the targets)
    "mc-balanced-mono": Row(
        "mc - -r 3 --quantity balanced-mono --trials 2000 --seed 5 --format json",
        pipe="gen-small",
        fields={"estimate": 0.0615},
    ),
    # 20000 trials cross the first block boundary of 16384 trials: the
    # estimate is the one the run had when trials were seeded per chunk
    "gen-200": Row("gen -m 200 -n 5 --edges 60 --seed 1"),
    "mc-blocks": Row(
        "mc - -r 2 --quantity mono-edge --trials 20000 --seed 5 --format json",
        pipe="gen-200",
        fields={"estimate": 0.8823},
    ),
    # at m = 5000, n = 3, |E| = 20000 and p = 0.99 the deflection chains
    # outlast the fixed point's rounds: both kernel calls hand all 4 of
    # their trials to the stage-2 walk
    "gen-5000": Row("gen -m 5000 -n 3 --edges 20000 --seed 1"),
    "mc-walk": Row(
        "mc - -r 2 --quantity expected-deflections --i 1 --p 0.99 --trials 8 --seed 0 --format json",
        pipe="gen-5000",
        fields={"estimate": 2916.375},
    ),
}


class Output(NamedTuple):
    status: int
    out: str
    err: str


def _in_process(argv, stdin: str) -> Output:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = run_cli(argv)
    return Output(status, out.getvalue(), err.getvalue())


def _child(argv, stdin: str, timeout: int) -> Output:
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "eqcolor", *argv],
        input=stdin,
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return Output(proc.returncode, proc.stdout, proc.stderr)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """The output of a row by name, each row run once, after the rows it
    reads."""
    files, done = tmp_path_factory.mktemp("pins"), {}

    def output(name: str) -> Output:
        if name not in done:
            row, argv = ROWS[name], []
            for word in row.argv.split(" "):
                if word.startswith("@"):
                    path = files / word[1:]
                    path.write_text(output(word[1:]).out)
                    word = str(path)
                argv.append(word)
            stdin = output(row.pipe).out if row.pipe else row.stdin
            if row.timeout:
                done[name] = _child(argv, stdin, row.timeout)
            else:
                done[name] = _in_process(argv, stdin)
        return done[name]

    return output


@pytest.mark.parametrize("name", ROWS)
def test_console_pin(run, name):
    row, (status, out, err) = ROWS[name], run(name)
    assert status == row.status, err
    if status == 1:
        assert err.startswith("error:"), err
    if row.sha256:
        assert hashlib.sha256(out.encode()).hexdigest() == row.sha256
    if row.same_as:
        assert out == run(row.same_as).out
    if row.fields or row.check:
        report = json.loads(out)
        for path, value in row.fields.items():
            assert functools.reduce(dict.__getitem__, path.split("."), report) == value, path
        assert row.check is None or row.check(report)
