"""The command-line workbench: grammars, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from wordorbits.cli import main, parse_structured
from wordorbits.complexity import orbit_classes
from wordorbits.construct import build_isomorphic_witness
from wordorbits.perm import PermGroup, normalize_spec, parse_cycles
from wordorbits.words import factors, fibonacci, parse_word_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# --- happy paths ------------------------------------------------------------------

def test_factors_verb(capsys):
    code, out = run_cli(capsys, "factors", "--word", "fib", "--n", "4")
    assert code == 0
    body = [line for line in out.splitlines() if not line.startswith("#")]
    assert body == ["n: 4", "count: 5", "0010", "0100", "0101", "1001", "1010"]


def test_orbits_verb(capsys):
    code, out = run_cli(capsys, "orbits", "--word", "fib", "--n", "4",
                        "--group", "(1,2,3,4)")
    assert code == 0
    assert "class 1: 0010 0100" in out
    assert "class 3: 1001" in out
    assert "abelian-transitive: false" in out


def test_epsilon_verb(capsys):
    code, out = run_cli(capsys, "epsilon", "--group", "(1,2);(3,4)", "--n", "4")
    assert code == 0
    assert "epsilon: 2" in out
    assert "orbit 1: 1 2" in out


def test_verify_verb_recovers_factor_counts(capsys):
    code, out = run_cli(capsys, "verify-theorem1", "--word", "fib",
                        "--groups", "id", "--n", "1..20")
    assert code == 0
    assert "verdict: pass" in out
    assert "sturmian-consistent: true" in out


def test_complexity_table_on_periodic_source(capsys):
    code, out = run_cli(capsys, "complexity-table", "--word", "periodic:01",
                        "--groups", "id", "--n", "1..3")
    assert code == 0
    assert "verdict: tabulated" in out


def test_witness_verb(capsys):
    code, out = run_cli(capsys, "witness", "--word", "fib", "--n", "4",
                        "--abelian", "Z4")
    assert code == 0
    assert "passed: true" in out


def test_conjugate_witness_verb(capsys):
    code, out = run_cli(capsys, "conjugate-witness", "--word", "fib",
                        "--n", "7", "--sigma", "(1,2,3,4,5)")
    assert code == 0
    assert "classes: 4" in out
    assert "passed: true" in out


def test_christoffel_verb_positional_and_flag(capsys):
    code, out = run_cli(capsys, "christoffel", "010010")
    assert code == 0
    assert "0 0 1 0 0 1 0 1" in out
    # the --w alias is gone; the positional form is the only one
    with pytest.raises(SystemExit) as exc:
        main(["christoffel", "--w", "010010"])
    assert exc.value.code == 2


def test_scan_verb(capsys):
    code, out = run_cli(capsys, "scan-conjugates", "--word", "fib", "--n", "6",
                        "--group", "(1,2,3)(4,5,6)")
    assert code == 0
    assert "min-classes: 4" in out


@pytest.mark.parametrize("group, classes, row_group", [
    ("sym", 2, "(1,2);(1,2,3,4,5,6,7,8)"),
    ("id", 9, "()"),
])
def test_scan_verb_at_the_degree_cap(capsys, group, classes, row_group):
    code, out = run_cli(capsys, "scan-conjugates", "--word", "fib", "--n", "8",
                        "--group", group)
    assert code == 0
    body = [line for line in out.splitlines() if not line.startswith("#")]
    assert body == ["subgroups: 1", f"min-classes: {classes}",
                    f"max-classes: {classes}",
                    f"classes={classes} group={row_group}"]


def test_fine_wilf_verb(capsys):
    code, out = run_cli(capsys, "fine-wilf", "--word", "fib", "--m", "4")
    assert code == 0
    assert "a: 1" in out and "b: 1" in out and "c: 2" in out


# --- exit codes --------------------------------------------------------------------

def test_unknown_verb_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["factors", "--word", "fib", "--n", "4", "--wat"])
    assert exc.value.code == 2


def test_bad_word_spec_exits_2(capsys):
    assert main(["factors", "--word", "nope:x", "--n", "4"]) == 2


def test_held_cap_exits_2_before_reading(capsys):
    # Morse-Hedlund: these factors would hold at least 9·10^10 letters
    tracemalloc.start()
    try:
        assert main(["factors", "--word", "tm", "--n", "300000"]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert "would hold" in capsys.readouterr().err


def test_bad_group_spec_exits_2(capsys):
    assert main(["orbits", "--word", "fib", "--n", "4", "--group", "wat"]) == 2


def test_scan_guard_exits_2(capsys):
    assert main(["scan-conjugates", "--word", "fib", "--n", "12",
                 "--group", "id"]) == 2


def test_verify_empty_range_exits_2(capsys):
    code, out = run_cli(capsys, "verify-theorem1", "--word", "fib",
                        "--groups", "id", "--n", "5..3")
    assert code == 2
    assert out == ""


def test_complexity_table_empty_range_exits_2(capsys):
    code, out = run_cli(capsys, "complexity-table", "--word", "fib",
                        "--groups", "id", "--n", "5..3")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("group", ["id", "sym", "cyc"])
def test_degree_0_group_exits_2(capsys, group):
    code = main(["epsilon", "--group", group, "--n", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "degree must be at least 1" in captured.err


def test_verify_inapplicable_exits_2(capsys):
    assert main(["verify-theorem1", "--word", "periodic:01",
                 "--groups", "id", "--n", "1..3"]) == 2


def test_non_primitive_christoffel_exits_2(capsys):
    assert main(["christoffel", "10"]) == 2


def test_trace_violation_exits_2(capsys):
    assert main(["witness", "--word", "fib", "--n", "3",
                 "--abelian", "Z2xZ2"]) == 2


def test_falsified_verification_exits_1(capsys, monkeypatch):
    # no honest input falsifies the bound, so force the fail paths directly
    import wordorbits.cli as cli_mod
    from wordorbits.complexity import ComplexityRow, ComplexityTable

    bad_table = ComplexityTable("stub", (ComplexityRow(2, "id", 2, 1),),
                                "fail", failure_n=2)
    monkeypatch.setattr(cli_mod, "verify_complexity_bound",
                        lambda *a, **k: bad_table)
    assert main(["verify-theorem1", "--word", "fib", "--groups", "id",
                 "--n", "2"]) == 1

    real_build = cli_mod.build_isomorphic_witness
    def unhappy(*a, **k):
        report = real_build(*a, **k)
        object.__setattr__(report, "passed", False)
        return report
    monkeypatch.setattr(cli_mod, "build_isomorphic_witness", unhappy)
    assert main(["witness", "--word", "fib", "--n", "4",
                 "--abelian", "Z4"]) == 1


def test_abc_rule_degree_restriction(capsys):
    assert main(["verify-theorem1", "--word", "fib", "--groups", "abc:1,1,2",
                 "--n", "4..4"]) == 0
    assert main(["verify-theorem1", "--word", "fib", "--groups", "abc:1,1,2",
                 "--n", "4..5"]) == 2


def test_group_file_rule(tmp_path, capsys):
    path = tmp_path / "groups.txt"
    path.write_text("# degree  generators\n4 (1,3,2,4)\n5 (1,3,5,2,4)\n")
    code, out = run_cli(capsys, "verify-theorem1", "--word", "fib",
                        "--groups", f"file:{path}", "--n", "4..5")
    assert code == 0
    assert "sturmian-consistent: true" in out
    assert main(["verify-theorem1", "--word", "fib",
                 "--groups", f"file:{path}", "--n", "4..6"]) == 2


@pytest.mark.parametrize("line, message", [
    ("x (1,2)", "invalid literal for int() with base 10: 'x'"),
    ("4 (1,9)", "point 9 exceeds degree 4"),
])
def test_group_file_errors_name_the_line(tmp_path, capsys, line, message):
    path = tmp_path / "groups.txt"
    path.write_text(f"# degree  generators\n5 (1,3,5,2,4)\n{line}\n")
    assert main(["epsilon", "--group", f"file:{path}", "--n", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}:3: {message}\n"


def test_group_grammar_is_shared_by_every_verb(tmp_path, capsys):
    path = tmp_path / "groups.txt"
    path.write_text("4 (1,2)\n4 (1,3,2,4)\n")  # the later line wins
    code, out = run_cli(capsys, "orbits", "--word", "fib", "--n", "4",
                        "--group", f"file:{path}")
    assert code == 0
    assert "group: (1,3,2,4)" in out
    assert "abelian-transitive: true" in out
    code, out = run_cli(capsys, "complexity-table", "--word", "fib",
                        "--groups", "(1,3,2,4)", "--n", "4")
    assert code == 0
    assert "4  (1,3,2,4)  1        2  0" in out
    assert main(["epsilon", "--group", f"file:{path}", "--n", "5"]) == 2


# --- determinism --------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("factors", "--word", "fib", "--n", "6"),
    ("factors", "--word", "fib", "--n", "6", "--format", "csv"),
    ("orbits", "--word", "tm", "--n", "5", "--group", "cyc",
     "--format", "structured"),
    ("verify-theorem1", "--word", "fib", "--groups", "sym", "--n", "1..6"),
    ("christoffel", "010010"),
    ("witness", "--word", "fib", "--n", "6", "--abelian", "Z3",
     "--format", "structured"),
])
def test_repeated_runs_are_byte_identical(capsys, argv):
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second


def test_csv_needs_no_quoting(capsys):
    for argv in (
        ("scan-conjugates", "--word", "fib", "--n", "6",
         "--group", "(1,2,3)(4,5,6)", "--format", "csv"),
        ("witness", "--word", "fib", "--n", "6", "--abelian", "Z2xZ2",
         "--format", "csv"),
        ("verify-theorem1", "--word", "fib", "--groups", "cyc", "--n", "1..6",
         "--format", "csv"),
    ):
        _, out = run_cli(capsys, *argv)
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        width = len(rows[0].split(","))
        assert all('"' not in row and len(row.split(",")) == width
                   for row in rows)


# --- structured round trips ------------------------------------------------------------

def test_factors_round_trip(capsys):
    _, out = run_cli(capsys, "factors", "--word", "fib", "--n", "4",
                     "--format", "structured")
    assert parse_structured(out) == factors(fibonacci(), 4)


@pytest.mark.parametrize("word, provenance", [
    ("tm", "certified"), ("subst:0=01,1=1;seed=0", "certified"),
    ("prefix:0110100110", "explicit-prefix")])
def test_provenance_round_trips(capsys, word, provenance):
    for verb in (("factors",), ("orbits", "--group", "cyc")):
        _, out = run_cli(capsys, *verb, "--word", word, "--n", "3",
                         "--format", "structured")
        assert json.loads(out)["provenance"] == provenance
        fs = parse_structured(out)
        fs = getattr(fs, "factor_set", fs)
        assert fs == factors(parse_word_spec(word), 3)
        assert fs.provenance == provenance


def test_orbits_round_trip(capsys):
    _, out = run_cli(capsys, "orbits", "--word", "fib", "--n", "4",
                     "--group", "(1,3,2,4)", "--format", "structured")
    expected = orbit_classes(factors(fibonacci(), 4),
                             PermGroup((parse_cycles("(1,3,2,4)"),)))
    assert parse_structured(out) == expected


def test_witness_round_trip(capsys):
    _, out = run_cli(capsys, "witness", "--word", "fib", "--n", "4",
                     "--abelian", "Z2", "--format", "structured")
    expected = build_isomorphic_witness(fibonacci(), 4, normalize_spec([2]))
    assert parse_structured(out) == expected


def test_parse_structured_refuses_other_kinds(capsys):
    _, out = run_cli(capsys, "fine-wilf", "--word", "fib", "--m", "8",
                     "--format", "structured")
    with pytest.raises(ValueError):
        parse_structured(out)


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["factors", "--word", "fib", "--n", "4"]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "wordorbits", *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0
    _, out = run_cli(capsys, *argv)
    assert proc.stdout == out


@pytest.mark.parametrize("argv, members", [
    (("factors", "--word", "tm", "--n", "1000"), 3022),
    (("orbits", "--word", "periodic:\u00e91", "--n", "3", "--group", "cyc"), 2),
    (("factors", "--word", 'periodic:a"b\\', "--n", "3"), 4),
    # a long list whose members all need escaping
    (("factors", "--word", "subst:\u00e9=\u00e9\\,\\=\\\u00e9;seed=\u00e9", "--n", "300"), 940),
])
def test_structured_output_is_json_dumps(capsys, argv, members):
    _, out = run_cli(capsys, *argv, "--format", "structured")
    data = json.loads(out)
    assert out == json.dumps(data, sort_keys=True, indent=2) + "\n"
    source = parse_word_spec(argv[2])
    assert data["members"] == list(factors(source, int(argv[4])).members)
    assert len(data["members"]) == members


def test_structured_is_versioned_json(capsys):
    _, out = run_cli(capsys, "fine-wilf", "--word", "fib", "--m", "8",
                     "--format", "structured")
    data = json.loads(out)
    assert data["format"] == "wordorbits/1"
    assert data["version"]
    assert data["command"] == "fine-wilf --word fib --m 8 --format structured"
