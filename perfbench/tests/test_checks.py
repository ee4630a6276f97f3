"""Each output check passes on the committed output and fails on a corrupted one."""

import asyncio
import copy
import json
from pathlib import Path

import pytest

import procs
import serve
from checks import Tally, check_dev_pass, check_sweep_pass, fibonacci

BASELINE = Path(__file__).resolve().parent.parent / "baseline"


@pytest.fixture(scope="module")
def sweep_committed():
    return json.loads((BASELINE / "paper_sweep_seed0.json").read_text())


@pytest.fixture(scope="module")
def dev_committed():
    return json.loads((BASELINE / "traced_dev_seed0.json").read_text())["cycles"]


def _table(committed):
    """A rendered table that hashes to the committed digest."""
    from repro.harness import ResultTable

    table = ResultTable(
        key="figure6",
        title=(
            "Figure 6: Average normalized execution time (percent of "
            "strict; lower is better)"
        ),
        columns=["Configuration", "T1 SCG", "T1 Train", "T1 Test",
                 "Modem SCG", "Modem Train", "Modem Test"],
    )
    for row in committed["rows"]:
        table.add_row(*row)
    return table.render()


def _sweep(points, table, reference, committed):
    tally = Tally()
    check_sweep_pass(tally, points, table, reference, committed)
    return tally


def test_sweep_check_accepts_the_committed_grid(sweep_committed):
    points = dict(sweep_committed["points"])
    tally = _sweep(points, _table(sweep_committed), points, sweep_committed)
    assert tally.correct
    assert (tally.attempted, tally.failed) == (72, 0)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda v: v * (1 + 1e-12),
        lambda v: None,
        lambda v: float("nan"),
        lambda v: -v,
    ],
    ids=["last-digit", "raised", "nan", "negative"],
)
def test_sweep_check_fails_on_a_corrupted_point(sweep_committed, corrupt):
    points = dict(sweep_committed["points"])
    key = sorted(points)[17]
    points[key] = corrupt(points[key])
    tally = _sweep(points, _table(sweep_committed), {}, sweep_committed)
    assert not tally.correct
    assert tally.failed == 1 and key in tally.problems[0]


def test_sweep_check_fails_on_a_missing_point(sweep_committed):
    points = dict(sweep_committed["points"])
    points.pop(sorted(points)[0])
    tally = _sweep(points, _table(sweep_committed), {}, sweep_committed)
    assert tally.failed == 1 and tally.attempted == 72


def test_sweep_check_fails_on_a_corrupted_table(sweep_committed):
    points = dict(sweep_committed["points"])
    table = _table(sweep_committed).replace("78.1", "78.2", 1)
    tally = _sweep(points, table, points, sweep_committed)
    assert not tally.correct
    assert "digest" in tally.problems[0]


def test_sweep_check_fails_when_a_seed_repeats_differently(sweep_committed):
    # Any seed: a later pass or run must equal the first one recorded.
    first = dict(sweep_committed["points"])
    later = dict(first)
    key = sorted(later)[3]
    later[key] += 0.5
    tally = _sweep(later, "", first, None)
    assert tally.failed == 1 and "same seed" in tally.problems[0]


def _dev_result(cycles):
    return {
        "rings": 11,
        "fib_n": 18,
        "mini": {"hanoi": 2**11 - 1, "fibonacci": 2584},
        "cycles": dict(cycles),
    }


def test_fibonacci_closed_form():
    assert [fibonacci(n) for n in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
    assert fibonacci(18) == 2584


def test_dev_check_accepts_committed_cycles(dev_committed):
    tally = Tally()
    check_dev_pass(tally, _dev_result(dev_committed), dev_committed, dev_committed)
    assert tally.correct and tally.attempted == 26


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r["mini"].__setitem__("hanoi", 2**11),
        lambda r: r["mini"].__setitem__("fibonacci", 2583),
        lambda r: r["cycles"].__setitem__("Jess|parallel|T1", r["cycles"]["Jess|parallel|T1"] + 1),
        lambda r: r["cycles"].pop("BIT|interleaved|modem"),
    ],
    ids=["hanoi-moves", "fibonacci", "traced-cycles", "missing-config"],
)
def test_dev_check_fails_on_a_corrupted_output(dev_committed, corrupt):
    result = _dev_result(dev_committed)
    corrupt(result)
    tally = Tally()
    check_dev_pass(tally, result, {}, dev_committed)
    assert not tally.correct and tally.failed == 1


def test_dev_check_compares_traced_with_untraced(dev_committed):
    untraced = copy.deepcopy(dev_committed)
    untraced["Hanoi|interleaved|T1"] += 1
    tally = Tally()
    check_dev_pass(tally, _dev_result(dev_committed), untraced, None)
    assert tally.failed == 1 and "untraced" in tally.problems[0]


def _good_session():
    return serve.Session(
        start=0.0, connected=0.01, entry=0.02, complete=0.05, closed=0.06,
        units=1665, payload_bytes=466448, manifest_units=1665,
        manifest_bytes=466448, digest="d" * 64,
    )


@pytest.mark.parametrize(
    "field, value",
    [("units", 1664), ("payload_bytes", 466447), ("digest", "e" * 64), ("error", "ConnectionLostError: x")],
)
def test_session_check_fails_on_a_corrupted_session(field, value):
    assert serve.check_session(_good_session(), "d" * 64) is None
    session = _good_session()
    setattr(session, field, value)
    assert serve.check_session(session, "d" * 64) is not None


def test_class_digest_sees_one_flipped_byte():
    classes = {"A": b"\x01\x02\x03", "B": b"\x04"}
    flipped = {"A": b"\x01\x02\x02", "B": b"\x04"}
    moved = {"A": b"\x01\x02", "B": b"\x03\x04"}
    digests = {serve.class_digest(c) for c in (classes, flipped, moved)}
    assert len(digests) == 3


def test_real_session_matches_the_plan_rebuilt_from_public_functions(tmp_path):
    from repro import figure1_program, save_program

    program_dir = save_program(figure1_program(), tmp_path / "figure1")
    expected, unit_count, total_bytes = serve.expected_classes(program_dir)
    server = serve.spawn_server(program_dir, tmp_path, 0)
    try:
        session = asyncio.run(serve.run_session(server.port))
    finally:
        procs.stop(server.process)
    assert server.process.poll() is not None
    assert serve.check_session(session, serve.class_digest(expected)) is None
    assert (session.manifest_units, session.manifest_bytes) == (unit_count, total_bytes)
    corrupted = dict(expected)
    name = sorted(corrupted)[0]
    corrupted[name] = bytes([corrupted[name][0] ^ 1]) + corrupted[name][1:]
    assert serve.check_session(session, serve.class_digest(corrupted)) is not None
