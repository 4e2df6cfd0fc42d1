import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import euler_phi

import balwords
from balwords.cli import main
from balwords.counting import count_balanced

GOLDEN = Path(__file__).parent / "golden"

# Every golden file is regenerated by exactly this invocation. Case ids number
# the entries in this order (argv0, argv1, ...), so new entries go at the end.
GOLDEN_COMMANDS = {
    "enum_balanced_5_3.txt": ["enum", "balanced", "5", "3"],
    "enum_farey_5.txt": ["enum", "farey", "5"],
    "enum_mf_6.txt": ["enum", "mf", "6"],
    "enum_plc_5.txt": ["enum", "plc", "5"],
    "gen_lower_7_4.txt": ["gen", "lower", "7", "4"],
    "gen_matrix_7_4.txt": ["gen", "matrix", "7", "4"],
    "render_7_4.txt": ["render", "00100100101"],
    "render_7_4_bar.svg": ["render", "00100100101", "--format", "svg", "--bar", "--segment"],
    "enum_mab_12.txt": ["enum", "mab", "12"],
}


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("name,argv", list(GOLDEN_COMMANDS.items()))
def test_golden_files_regenerate(name, argv, capsys):
    code, out = run(argv, capsys)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


def test_gen_words(capsys):
    assert run(["gen", "lower", "7", "4"], capsys) == (0, "00100100101\n")
    assert run(["gen", "upper", "7", "4"], capsys) == (0, "10100100100\n")
    assert run(["gen", "central", "7", "4"], capsys) == (0, "010010010\n")


def test_gen_json(capsys):
    code, out = run(["gen", "matrix", "1", "1", "--json"], capsys)
    assert code == 0
    assert json.loads(out) == {"a": 1, "b": 1, "rows": ["01", "10"]}
    code, out = run(["gen", "lower", "5", "3", "--json"], capsys)
    assert json.loads(out)["word"] == "00100101"


def test_gen_invalid_inputs_exit_2(capsys):
    assert main(["gen", "lower", "0", "0"]) == 2
    assert main(["gen", "central", "4", "2"]) == 2
    assert main(["gen", "matrix", "0", "2"]) == 2


def test_check_exit_codes(capsys):
    assert main(["check", "balanced", "00100101"]) == 0
    assert main(["check", "balanced", "000101"]) == 1
    assert main(["check", "balanced", ""]) == 0
    assert main(["check", "balanced", "012"]) == 2
    assert main(["check", "in-bar", "000"]) == 2
    assert main(["check", "circular", ""]) == 2


def test_check_reports_witness(capsys):
    code, out = run(["check", "balanced", "000101", "--json"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["holds"] is False
    assert payload["witness"] == {"v": "0", "pos0": 1, "pos1": 4}


WITNESS_OUTPUTS = {
    ("circular", "00101010"): (
        "circular: no (rotation='10101000', offset=2)",
        {"rotation": "10101000", "offset": 2},
    ),
    ("prefix-normal", "00101001001"): (
        "prefix-normal: no (factor='00100', position=6, prefix='00101')",
        {"factor": "00100", "position": 6, "prefix": "00101"},
    ),
    ("in-bar", "000011"): (
        "in-bar: no (prefix_length=3, height=0, allowed=[1, 1])",
        {"prefix_length": 3, "height": 0, "allowed": [1, 1]},
    ),
}


@pytest.mark.parametrize("prop,word", sorted(WITNESS_OUTPUTS))
def test_check_witness_text_and_json(prop, word, capsys):
    text, witness = WITNESS_OUTPUTS[prop, word]
    assert run(["check", prop, word], capsys) == (1, text + "\n")
    payload = {"property": prop, "word": word, "holds": False, "witness": witness}
    assert run(["check", prop, word, "--json"], capsys) == (1, json.dumps(payload) + "\n")


def test_check_various_properties(capsys):
    assert main(["check", "plc", "00101"]) == 0
    assert main(["check", "plc", "00101001001"]) == 1
    assert main(["check", "central", "010010010"]) == 0
    assert main(["check", "lyndon", "00100101"]) == 0
    assert main(["check", "lyndon", "10"]) == 1
    assert main(["check", "mf", "000101"]) == 0
    assert main(["check", "mf", "0000101"]) == 1
    assert main(["check", "circular", "00101010"]) == 1
    assert main(["check", "prefix-normal", "00101001001"]) == 1
    assert main(["check", "in-bar", "00100100101"]) == 0


def test_count_plain_and_audit(capsys):
    assert run(["count", "5", "3"], capsys) == (0, "12\n")
    assert run(["count", "0", "9"], capsys) == (0, "1\n")
    code, out = run(["count", "5", "3", "--audit"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 12
    heavy = {(t["alpha"], t["beta"]): t["H"] for t in payload["terms"] if t["kind"] == "heavy"}
    assert heavy == {(2, 1): 2, (5, 2): 2, (5, 3): 0}


def test_count_oracle_flag(capsys):
    code, out = run(["count", "5", "3", "--oracle"], capsys)
    assert code == 0
    assert out == "formula=12 oracle=12 ok\n"
    assert main(["count", "15", "10", "--oracle"]) == 2


def test_count_oracle_disagreement_exits_1(capsys, monkeypatch):
    code, out = run(["count", "5", "3", "--oracle", "--json"], capsys)
    payload = json.loads(out)
    assert (code, payload["oracle"], payload["agrees"]) == (0, 12, True)
    # The CLI calls the oracle through the module, so patching it there reaches it.
    monkeypatch.setattr(balwords.counting, "brute_count_balanced", lambda a, b, cap: count_balanced(a, b) + 1)
    assert run(["count", "5", "3", "--oracle"], capsys) == (1, "formula=12 oracle=13 MISMATCH\n")
    code, out = run(["count", "5", "3", "--oracle", "--json"], capsys)
    payload = json.loads(out)
    assert (code, payload["total"], payload["oracle"], payload["agrees"]) == (1, 12, 13, False)


def test_enum_commands(capsys):
    code, out = run(["enum", "balanced", "4", "2"], capsys)
    assert code == 0
    assert out.split() == [
        "001001",
        "001010",
        "010001",
        "010010",
        "010100",
        "100001",
        "100010",
        "100100",
    ]
    code, out = run(["enum", "mab", "6"], capsys)
    assert out.split() == ["000101", "0011", "010111", "101000", "1100", "111010"]
    # The empty word is the one balanced word with Parikh vector (0,0), as count 0 0 says.
    assert run(["enum", "balanced", "0", "0"], capsys) == (0, "\n")
    assert run(["count", "0", "0"], capsys) == (0, "1\n")


def test_empty_listing_writes_nothing(tmp_path, capsys):
    # One line per item: no words is no line, while the empty word is one empty line.
    assert run(["enum", "mf", "7"], capsys) == (0, "")
    assert run(["enum", "mab", "3"], capsys) == (0, "")
    assert run(["enum", "mf", "7", "--json"], capsys) == (0, "[]\n")
    assert run(["enum", "balanced", "0", "0"], capsys) == (0, "\n")
    target = tmp_path / "mf.txt"
    assert main(["enum", "mf", "7", "--output", str(target)]) == 0
    assert target.read_text() == ""
    assert main(["enum", "balanced", "0", "0", "--output", str(target)]) == 0
    assert target.read_text() == "\n"
    assert capsys.readouterr().out == ""


def test_enum_json_forms(capsys):
    code, out = run(["enum", "mf", "6", "--json"], capsys)
    records = json.loads(out)
    assert records[0] == {"word": "000101", "source": "100100"}
    code, out = run(["enum", "farey", "5", "--json"], capsys)
    rows = json.loads(out)
    assert rows[4] == {"word": "00101", "root": "00101", "fraction": "2/5"}
    code, out = run(["enum", "balanced", "1", "1", "--json"], capsys)
    assert json.loads(out) == ["01", "10"]


def test_enum_caps_and_force(capsys):
    assert main(["enum", "plc", "27"]) == 2
    code, out = run(["enum", "plc", "27", "--force"], capsys)
    assert code == 0
    assert len(out.split()) == 1 + sum(euler_phi(i) for i in range(1, 28))
    assert main(["enum", "balanced", "20", "20"]) == 2


# family: (sizes summing to the cap, sizes one over it, the label the cap error names)
CAP_BOUNDARY = {
    "balanced": (["13", "13"], ["14", "13"], "a+b"),
    "plc": (["26"], ["27"], "n"),
    "mf": (["26"], ["27"], "n"),
    "mab": (["26"], ["27"], "max_len"),
    "farey": (["26"], ["27"], "n"),
}


@pytest.mark.parametrize("family", list(CAP_BOUNDARY))
def test_enum_cap_boundary(family, capsys):
    at_cap, over_cap, label = CAP_BOUNDARY[family]
    assert main(["enum", family, *at_cap]) == 0
    capsys.readouterr()
    assert main(["enum", family, *over_cap]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {label}=27 exceeds the cap 26; pass --force to override\n"
    assert main(["enum", family, *over_cap, "--force"]) == 0


def test_enum_options_follow_the_family(tmp_path, capsys):
    target = tmp_path / "plc.txt"
    for argv in (["enum", "--json", "balanced", "3", "2"], ["enum", "--output", str(target), "plc", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
    assert not target.exists()
    code, out = run(["enum", "balanced", "3", "2", "--json"], capsys)
    assert (code, json.loads(out)) == (0, ["00101", "01001", "01010", "10001", "10010", "10100"])
    assert main(["enum", "plc", "3", "--output", str(target)]) == 0
    assert target.read_text() == "000\n001\n010\n011\n111\n"
    assert capsys.readouterr().out == ""


def test_internal_check_failure_exits_1(monkeypatch, capsys):
    from balwords import farey

    # The walk yields only 1/1, so the bijection sees 2 fractions against 11 words.
    monkeypatch.setattr(farey, "_farey_walk", lambda order, u, v, x, y: iter([(1, 1, 2, 1)]))
    assert main(["enum", "farey", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: size mismatch at n=5")
    assert "Traceback" not in captured.err


def test_identical_invocations_are_byte_identical(capsys):
    first = run(["enum", "balanced", "5", "3"], capsys)
    second = run(["enum", "balanced", "5", "3"], capsys)
    assert first == second


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "word.txt"
    code = main(["gen", "lower", "7", "4", "--output", str(target)])
    assert code == 0
    assert target.read_text() == "00100100101\n"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("target", ["missing/dir/word.txt", "."])
def test_output_flag_unwritable_path_exits_2(target, tmp_path, capsys):
    code = main(["gen", "lower", "7", "4", "--output", str(tmp_path / target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def _child_env():
    """The caller's environment with PYTHONPATH set to the imported package's tree."""
    return {**os.environ, "PYTHONPATH": str(Path(balwords.__file__).resolve().parents[1])}


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "balwords", "count", "5", "3"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "12\n"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Every record is a named tuple, so a cold start skips both modules; and
    # `fractions` (with `decimal`) loads only when a Fraction is built.
    heavy = "{'dataclasses', 'inspect', 'fractions', 'decimal'}"
    code = f"import sys, balwords.cli; print(sorted({heavy} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_closed_stdout_exits_2_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "balwords", "enum", "plc", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_child_env(),
    )
    proc.stdout.close()  # before the child can start writing
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "Exception ignored" not in err


def test_render_command(capsys):
    code, out = run(["render", "01"], capsys)
    assert (code, out) == (0, "_|\n")
    assert main(["render", "000", "--bar"]) == 2
    assert main(["render", "01", "--segment"]) == 2  # ascii mode has no segment
    code, out = run(["render", "01", "--segment", "--format", "svg"], capsys)
    assert code == 0 and out.startswith("<svg")
