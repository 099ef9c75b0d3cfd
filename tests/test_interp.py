import pytest

from interp import EvalTypeError, FuelExhausted, evaluate_program
from minijif.parser import parse_program


def run(body: str, inputs=None, fuel=10_000, prelude="principal A;\n"):
    src = f"{prelude}class Main {{\n    void main{{}}() {{\n{body}\n    }}\n}}\n"
    return evaluate_program(parse_program(src), inputs, fuel)


class TestBasics:
    def test_arithmetic(self):
        assert run("        int x = 1 + 2;")["x"] == 3

    def test_if_else(self):
        out = run(
            "        int y = 0;\n"
            "        if (true) {\n            y = 1;\n        } else {\n            y = 2;\n        }"
        )
        assert out["y"] == 1

    def test_while_loop(self):
        out = run(
            "        int n = 0;\n        int total = 0;\n"
            "        while (n < 5) {\n            n = n + 1;\n            total = total + n;\n        }"
        )
        assert out["total"] == 15

    def test_precedence(self):
        assert run("        int x = 2 + 3 * 4;")["x"] == 14

    def test_division_truncates_toward_zero_and_is_total(self):
        out = run("        int a = 7 / 2;\n        int b = (0 - 7) / 2;\n        int c = 1 / 0;")
        assert (out["a"], out["b"], out["c"]) == (3, -3, 0)

    def test_short_circuit(self):
        out = run("        boolean ok = true || (1 / 0) == 1;")
        assert out["ok"] is True

    def test_strings(self):
        out = run('        String s = concat("ab", "cd");\n        int n = length(s);')
        assert out["s"] == "abcd"
        assert out["n"] == 4

    def test_substring_clamps(self):
        out = run(
            '        String a = substring("abcdef", 0, 3);\n'
            '        String b = substring("abcdef", 4, 99);\n'
            '        String c = substring("abcdef", 5, 2);'
        )
        assert (out["a"], out["b"], out["c"]) == ("abc", "ef", "")

    def test_declassify_is_identity_at_runtime(self):
        out = run('        String s = declassify("x", {A->*} to {A->_});')
        assert out["s"] == "x"

    def test_return_value(self):
        src = "class Main {\n    int main{}() {\n        return 41 + 1;\n    }\n}\n"
        assert evaluate_program(parse_program(src))["__return__"] == 42


class TestInputs:
    def test_uninitialized_locals_take_inputs(self):
        out = run("        int{A->*} secret;\n        int doubled = secret * 2;",
                  inputs={"secret": 21})
        assert out["doubled"] == 42

    def test_zero_defaults(self):
        out = run("        int i;\n        boolean b;\n        String s;")
        assert (out["i"], out["b"], out["s"]) == (0, False, "")

    def test_input_type_checked(self):
        with pytest.raises(EvalTypeError):
            run("        int secret;", inputs={"secret": "not an int"})

    def test_initializer_wins_over_inputs(self):
        assert run("        int x = 5;", inputs={"x": 9})["x"] == 5


class TestErrors:
    def test_fuel_exhausted(self):
        with pytest.raises(FuelExhausted):
            run("        while (true) {\n            int x = 1;\n        }", fuel=50)

    def test_classes_unsupported(self):
        src = (
            "class Box {\n    int{} v;\n}\n"
            "class Main {\n    void main{}() {\n        Box b = new Box(1);\n    }\n}\n"
        )
        with pytest.raises(EvalTypeError):
            evaluate_program(parse_program(src))

    def test_mixed_comparison(self):
        with pytest.raises(EvalTypeError):
            run('        boolean b = 1 == "1";')

    def test_needs_entry_point(self):
        with pytest.raises(EvalTypeError):
            evaluate_program(parse_program("class C { void a{}() { } void b{}() { } }"))

    def test_scope_discipline(self):
        out = run(
            "        int x = 1;\n"
            "        if (true) {\n            int y = 2;\n            x = y;\n        }"
        )
        assert out["x"] == 2
        assert "y" not in out
