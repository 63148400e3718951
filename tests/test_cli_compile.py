"""Tests for the ``funtal compile`` subcommand."""

import pytest

from repro.cli import main


@pytest.fixture
def program_file(tmp_path):
    def write(source):
        path = tmp_path / "prog.ft"
        path.write_text(source)
        return str(path)

    return write


class TestCompile:
    def test_arith_lambda(self, program_file, capsys):
        path = program_file("lam (x: int). (x + 1)")
        assert main(["compile", path]) == 0
        out = capsys.readouterr().out
        assert "tier: general" in out
        assert "type: (int) -> int" in out
        assert "ret ra" in out

    def test_higher_order_goes_general(self, program_file, capsys):
        path = program_file(
            "lam (g: (int) -> int). (g (5))")
        assert main(["compile", path]) == 0
        out = capsys.readouterr().out
        assert "tier: general" in out
        assert "blocks:" in out

    def test_ir_flag(self, program_file, capsys):
        path = program_file("lam (x: int). (x + 1)")
        assert main(["compile", path, "--ir"]) == 0
        out = capsys.readouterr().out
        assert "tier: general" in out
        assert "closure IR:" in out

    def test_example_run_and_validate(self, capsys):
        assert main(["compile", "fact-f", "--run", "--validate"]) == 0
        out = capsys.readouterr().out
        assert "tier: general" in out
        assert "translation validation: validated" in out
        assert "value: 720" in out

    def test_run_with_apply(self, program_file, capsys):
        path = program_file("lam (x: int). (x * 3)")
        assert main(["compile", path, "--run", "--apply", "14"]) == 0
        assert "value: 42" in capsys.readouterr().out

    def test_run_function_without_apply_is_usage_error(
            self, program_file, capsys):
        path = program_file("lam (x: int). (x * 3)")
        assert main(["compile", path, "--run"]) == 2
        assert "--apply" in capsys.readouterr().err

    def test_apply_to_non_function_is_usage_error(self, capsys):
        # fact-f is the closed application factF 6: an int, not a function
        assert main(["compile", "fact-f", "--run", "--apply", "3"]) == 2
        captured = capsys.readouterr()
        assert "type int" in captured.err
        assert "value:" not in captured.out

    def test_apply_arity_mismatch_is_usage_error(
            self, program_file, capsys):
        path = program_file("lam (x: int). (x * 3)")
        assert main(["compile", path, "--run", "--apply", "1",
                     "--apply", "2"]) == 2
        assert "takes 1 argument" in capsys.readouterr().err

    def test_compiled_recursion_runs_in_linear_fuel(
            self, program_file, capsys):
        # Fig 17's factF at n=12: exponential boundary wrapping would need
        # far more than 3000 fuel here
        mu = "mu a. (a) -> (int) -> int"
        body = (f"lam (f: {mu}). lam (x: int). if0 x {{1}} "
                "{(((unfold (f)) (f)) ((x - 1)) * x)}")
        path = program_file(
            f"lam (x: int). (({body}) (fold[{mu}] ({body}))) (x)")
        assert main(["compile", path, "--run", "--apply", "12",
                     "--run-fuel", "3000"]) == 0
        assert "value: 479001600" in capsys.readouterr().out

    def test_component_rejected(self, program_file, capsys):
        path = program_file("(mv r1, 1; halt int, nil {r1}, .)")
        assert main(["compile", path]) == 2
        assert "F term" in capsys.readouterr().err

    def test_ineligible_term_fails_cleanly(self, capsys):
        # fact-t wraps a T component in boundaries: outside core F
        assert main(["compile", "fact-t"]) == 1
        err = capsys.readouterr().err
        assert "the compiler does not cover this term" in err

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("((1 + 2) * 7)"))
        assert main(["compile", "-", "--run"]) == 0
        out = capsys.readouterr().out
        assert "value: 21" in out
