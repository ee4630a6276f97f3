"""The repro-inspect command-line toolbox."""

import pytest

from repro import record_run, save_program, save_trace
from repro.tools import main
from repro.workloads import figure1_program


@pytest.fixture()
def stored(tmp_path):
    program = figure1_program()
    directory = save_program(program, tmp_path / "prog")
    _, recorder = record_run(program)
    trace = save_trace(recorder.trace, tmp_path / "trace.json")
    return str(directory), str(trace)


def test_layout(stored, capsys):
    directory, _ = stored
    assert main(["layout", directory]) == 0
    out = capsys.readouterr().out
    assert "A:" in out and "global" in out


def test_layout_verbose_lists_methods(stored, capsys):
    directory, _ = stored
    assert main(["layout", directory, "--verbose"]) == 0
    assert "Bar_A" in capsys.readouterr().out


def test_disasm_lists_and_dumps(stored, capsys):
    directory, _ = stored
    assert main(["disasm", directory, "B"]) == 0
    listing = capsys.readouterr().out
    assert "Foo_B(I)I" in listing
    assert main(["disasm", directory, "B", "Foo_B"]) == 0
    body = capsys.readouterr().out
    assert "ireturn" in body


def test_order(stored, capsys):
    directory, _ = stored
    assert main(["order", directory]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].endswith("(bytes before: 0)")
    assert "A.main" in out


def test_partition(stored, capsys):
    directory, _ = stored
    assert main(["partition", directory]) == 0
    assert "%" in capsys.readouterr().out


def test_verify_ok(stored, capsys):
    directory, _ = stored
    assert main(["verify", directory]) == 0
    out = capsys.readouterr().out
    assert out.count("OK") == 2


def test_verify_reports_failures(tmp_path, capsys):
    """A corrupted method body must be caught and exit non-zero."""
    from repro.bytecode import Instruction, Opcode
    from repro.classfile import ClassFileBuilder
    from repro.program import Program
    from repro import save_program

    builder = ClassFileBuilder("Broken")
    builder.add_method(
        "main", "()V", [Instruction(Opcode.POP), Instruction(Opcode.RETURN)]
    )
    save_program(
        Program(classes=[builder.build()]), tmp_path / "broken"
    )
    assert main(["verify", str(tmp_path / "broken")]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_simulate(stored, capsys):
    directory, trace = stored
    assert (
        main(
            [
                "simulate",
                directory,
                trace,
                "--link",
                "modem",
                "--cpi",
                "50",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "normalized:" in out
    assert "strict total:" in out


def test_simulate_striped_links(stored, capsys):
    directory, trace = stored
    assert (
        main(
            [
                "simulate",
                directory,
                trace,
                "--links",
                "modem,57600",
                "--sched-policy",
                "deadline",
                "--cpi",
                "50",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "striped links:" in out
    assert "modem, link1@57600bps" in out
    assert "policy deadline" in out


def _non_strict_total(out):
    line = next(
        line for line in out.splitlines()
        if line.startswith("non-strict total:")
    )
    return float(line.split(":")[1].split()[0].replace(",", ""))


def test_simulate_loss_slows_striped_links(stored, capsys):
    directory, trace = stored
    args = ["simulate", directory, trace, "--links", "modem,modem",
            "--cpi", "50"]
    assert main(args) == 0
    clean = _non_strict_total(capsys.readouterr().out)
    lossy = args + ["--loss", "0.2", "--retransmit-penalty", "1000000"]
    assert main(lossy) == 0
    out = capsys.readouterr().out
    assert "modem+loss0.2, modem+loss0.2" in out
    assert _non_strict_total(out) > clean


def test_simulate_rejects_streams_with_links(stored, capsys):
    directory, trace = stored
    assert (
        main(["simulate", directory, trace, "--links", "modem,modem",
              "--streams", "2"])
        == 2
    )
    assert "--streams" in capsys.readouterr().err


def test_simulate_engine_ab_identical(stored, capsys):
    """--engine batched prints exactly what --engine reference does."""
    directory, trace = stored
    outputs = {}
    for engine in ("reference", "batched"):
        assert (
            main(
                [
                    "simulate",
                    directory,
                    trace,
                    "--link",
                    "modem",
                    "--cpi",
                    "50",
                    "--method",
                    "parallel",
                    "--engine",
                    engine,
                ]
            )
            == 0
        )
        outputs[engine] = capsys.readouterr().out
    assert outputs["reference"] == outputs["batched"]


def test_simulate_rejects_bad_links_spec(stored, capsys):
    directory, trace = stored
    assert (
        main(["simulate", directory, trace, "--links", "t1,carrier-pigeon"])
        == 2
    )
    assert "bad --links token" in capsys.readouterr().err


def test_errors_exit_2(tmp_path, capsys):
    assert main(["layout", str(tmp_path / "missing")]) == 2
    assert "error:" in capsys.readouterr().err


def _dead_method_program(tmp_path):
    from repro.bytecode import assemble
    from repro.classfile import ClassFileBuilder
    from repro.program import MethodId, Program

    builder = ClassFileBuilder("W")
    builder.add_method("main", "()V", assemble("return"))
    builder.add_method("unused", "()V", assemble("return"))
    program = Program(
        classes=[builder.build()],
        entry_point=MethodId("W", "main"),
    )
    return str(save_program(program, tmp_path / "warn"))


def test_lint_fail_on_thresholds(tmp_path, capsys):
    directory = _dead_method_program(tmp_path)
    # Warnings (dead-method) but no errors: default threshold passes.
    assert main(["lint", directory]) == 0
    out = capsys.readouterr().out
    assert "dead-method" in out
    # Tightening the threshold turns the same findings into failures.
    assert main(["lint", directory, "--fail-on", "warning"]) == 1
    capsys.readouterr()
    assert main(["lint", directory, "--fail-on", "note"]) == 1
    capsys.readouterr()


def test_lint_fail_on_note_passes_on_findingless_run(stored, capsys):
    directory, trace = stored
    code = main(
        ["lint", directory, "--trace", trace, "--fail-on", "note"]
    )
    out = capsys.readouterr().out
    if "findings: none" in out:
        assert code == 0
    else:
        assert code == 1


def test_interproc_summary(stored, capsys):
    directory, _ = stored
    assert main(["interproc", directory]) == 0
    out = capsys.readouterr().out
    assert "reachable:         5/5 methods (0 dead)" in out
    assert "monomorphic" in out


def test_interproc_json(stored, tmp_path, capsys):
    import json

    directory, _ = stored
    target = tmp_path / "interproc.json"
    assert main(["interproc", directory, "--json", str(target)]) == 0
    payload = json.loads(target.read_text())
    assert payload["dead"] == 0
    assert payload["reachable"] == 5
    assert payload["monomorphic_sites"] == payload["feasible_sites"]
    assert payload["prune_bytes_saved"] == 0
    assert payload["top_edges"]
    capsys.readouterr()


def test_interproc_requires_exactly_one_source(stored, capsys):
    directory, _ = stored
    assert main(["interproc"]) == 2
    assert main(["interproc", directory, "--workload", "Hanoi"]) == 2
    capsys.readouterr()
