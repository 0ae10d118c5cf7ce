import json

import pytest

from apolar.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hilbert_text(capsys):
    code, out, err = run(capsys, "hilbert", "-n", "2", "y1^3*y2^2 + y2^4")
    assert code == 0
    assert "hilbert_function: 1 2 3 3 2 1" in out


def test_hilbert_many_variables(capsys):
    # the monomial enumeration must not recurse once per variable
    code, out, err = run(capsys, "hilbert", "-n", "1200", "y1", "--format", "structured")
    assert code == 0
    assert err == ""
    assert json.loads(out)["hilbert_function"] == [1, 1]


def test_hilbert_check_agrees(capsys):
    code, out, _ = run(
        capsys, "hilbert", "-n", "2", "y1^3*y2^2", "--check", "--format", "structured"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["check"]["paths_agree"] is True
    assert doc["check"]["catalecticant_ranks"] == doc["hilbert_function"]


def test_hilbert_check_level_pair(capsys):
    code, out, _ = run(
        capsys, "hilbert", "-n", "3",
        "y1^2*y2*y3", "y1*y2^2*y3 + y2*y3^3",
        "--check", "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["hilbert_function"] == [1, 3, 6, 6, 2]
    assert doc["check"]["paths_agree"] is True


def test_hilbert_check_rejects_inhomogeneous(capsys):
    code, _, err = run(capsys, "hilbert", "-n", "2", "y1^3*y2^2 + y2^4", "--check")
    assert code == 2
    assert "homogeneous" in err


def test_socle_command(capsys):
    code, out, _ = run(
        capsys, "socle", "-n", "3",
        "y1^2*y2*y3 + y3^3", "y1*y2^2*y3 + y2*y3^3",
        "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["socle_type"] == [0, 0, 0, 0, 2]
    assert doc["type"] == 2
    assert doc["warnings"] == []


def test_delta_single_column(capsys):
    code, out, _ = run(capsys, "delta", "-n", "2", "-q", "0", "y1^4", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["shape"] == [5, 1]
    assert [row[0] for row in doc["matrix"]] == ["24", "0", "0", "0", "0"]


def test_mmatrix_level_pair(capsys):
    code, out, _ = run(
        capsys, "mmatrix", "-n", "3", "-p", "1",
        "y1^2*y2*y3 + y3^3", "y1*y2^2*y3 + y2*y3^3",
        "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["shape"] == [20, 18]


def test_compressed_command(capsys):
    code, out, _ = run(
        capsys, "compressed", "-n", "2", "y1^3*y2 + y2^3", "--format", "structured"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["is_compressed"] is False
    assert doc["hilbert_function"] == [1, 2, 2, 2, 1]
    assert doc["compressed_hilbert_function"] == [1, 2, 3, 2, 1]


def test_graded_obstructed(capsys):
    code, out, _ = run(
        capsys, "graded", "-n", "3",
        "y1^2*y2*y3 + y3^3", "y1*y2^2*y3 + y2*y3^3",
        "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "OBSTRUCTED_RESTRICTED"
    assert doc["obstruction"]["gap"] == 1
    assert doc["obstruction"]["target"][9] == "6"


def test_graded_text_output(capsys):
    code, out, _ = run(capsys, "graded", "-n", "2", "y1^3*y2")
    assert code == 0
    assert "outcome: GRADED" in out


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "hilbert", "-n", "2", "y1^^2")
    assert code == 1
    assert "parse error" in err


def test_zero_denominator_is_a_parse_error(capsys):
    code, out, err = run(capsys, "hilbert", "-n", "2", "1/0*y1")
    assert code == 1
    assert out == ""
    assert err == "parse error: zero denominator (at position 0)\n"


@pytest.mark.parametrize("num_vars", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert"],
        ["socle"],
        ["delta", "-q", "1"],
        ["mmatrix", "-p", "1"],
        ["compressed"],
        ["graded"],
    ],
)
@pytest.mark.parametrize("generator", ["1", "y1"])
def test_too_few_variables_rejected(capsys, argv, num_vars, generator):
    code, out, err = run(capsys, *argv, "-n", num_vars, generator)
    assert code == 2
    assert out == ""
    assert err == "validation error: need at least one variable\n"


@pytest.mark.parametrize("generator, degree", [("5", 0), ("y1", 1)])
def test_mmatrix_refuses_low_degree(capsys, generator, degree):
    code, out, err = run(capsys, "mmatrix", "-n", "2", "-p", "1", generator)
    assert code == 2
    assert out == ""
    assert err == (
        f"validation error: a form of degree {degree} has no killing matrix"
        " (degree must be at least 2)\n"
    )


def test_validation_error_exit_code(capsys):
    code, _, err = run(capsys, "hilbert", "-n", "2", "y1^2", "y1^2 + y1")
    assert code == 2
    assert "dependent" in err.lower()


def test_graded_with_steps_document(capsys):
    code, out, _ = run(
        capsys, "graded", "-n", "2", "y1^4 + y1*y2", "--format", "structured"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "GRADED"
    assert [st["gap"] for st in doc["steps"]] == [2]
    assert doc["final_generators"] == ["y1^4"]


def test_structured_round_trip_byte_identical(capsys):
    for argv in (
        ["graded", "-n", "2", "y1^3*y2^2 + y2^4", "--format", "structured"],
        ["graded", "-n", "2", "y1^4 + y1*y2 + y2", "--format", "structured"],
        ["hilbert", "-n", "2", "y1^3*y2", "--format", "structured"],
    ):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_invariant_violation_exit_code(capsys, monkeypatch):
    # handlers are looked up from module globals on every call, so patching
    # the module attribute reroutes dispatch
    from apolar.errors import InvariantViolation
    import apolar.cli as cli

    def boom(args):
        raise InvariantViolation("forced for the exit-code test")

    monkeypatch.setattr(cli, "_cmd_hilbert", boom)
    code = cli.main(["hilbert", "-n", "2", "y1^2"])
    err = capsys.readouterr().err
    assert code == 3
    assert "invariant" in err


def test_paper_examples_all_pass(capsys):
    code, out, _ = run(capsys, "paper-examples", "--format", "structured", "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert doc["total"] == doc["passed"] > 30
    assert doc["seed"] == 5
