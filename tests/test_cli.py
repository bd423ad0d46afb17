import contextlib
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from nlp2dlp import GeneratorConfig, generate_program, print_nested
from nlp2dlp import cli
from nlp2dlp.cli import build_parser, main
from nlp2dlp.verify import DEFAULT_VERIFY_CAP, GROWTH_FAMILIES, MODES

CLOSING = "p. q. r v (p, q).\n"
DEEP_INPUTS = {
    "long_body": "p :- " + ", ".join(
        f"not a{i}" if i % 2 else f"not not a{i}" for i in range(10_000)) + ".\n",
    "stacked_not": "p :- " + "not " * 10_000 + "q.\n",
    "nested_parens": "p :- " + "".join(
        f"(not a{i} {'v' if i % 2 else ','} " for i in range(500))
    + "q" + ")" * 500 + ".\n",
}


def run_cli(args, stdin=""):
    proc = subprocess.run(
        [sys.executable, "-m", "nlp2dlp", *args],
        input=stdin, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def _readme_commands():
    """The command lines of the README's CLI block, each with the output
    documented under it by a ``# -> `` line, or None."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    commands = []
    for line, after in zip(lines, lines[1:] + [""]):
        if line.startswith(("echo ", "nlp2dlp ")):
            documented = after[len("# -> "):] \
                if after.startswith("# -> ") else None
            commands.append((line.split("  #")[0].rstrip(), documented))
    return commands


# README lines that read files the README does not provide
NEEDS_FILES = {"nlp2dlp check modular -i one.lp -j two.lp"}


@pytest.mark.parametrize("line, documented", _readme_commands())
def test_readme_cli_example(line, documented):
    if line in NEEDS_FILES:
        pytest.skip("reads input files")
    stdin = ""
    for stage in line.split(" | "):
        if stage.startswith("echo "):
            stdin = shlex.split(stage)[1] + "\n"
            continue
        program, *args = shlex.split(stage)
        assert program == "nlp2dlp"
        code, stdin, err = run_cli(args, stdin)
        assert code == 0, (stage, err)
    if documented is not None:
        assert stdin.strip() == documented


def call_main(args, stdin, capsys, monkeypatch):
    """Run ``main`` in process on ``stdin``, text or raw bytes."""
    data = stdin if isinstance(stdin, bytes) else stdin.encode()
    monkeypatch.setattr("sys.stdin",
                        io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_translate_then_solve_pipe():
    code, dlv, err = run_cli(["translate", "--mode", "structural"], CLOSING)
    assert code == 0
    assert "mode=structural" in err and "labels_created=" in err
    code, out, _ = run_cli(["solve", "--project", "p,q,r"], dlv)
    assert code == 0
    assert out == "{p, q}\n"


def test_solve_empty_program_prints_empty_set(capsys, monkeypatch):
    code, out, _ = call_main(["solve"], "", capsys, monkeypatch)
    assert code == 0
    assert out == "{}\n"


def test_solve_reports_zero_answer_sets(capsys, monkeypatch):
    code, out, _ = call_main(["solve"], "p. :- p.", capsys, monkeypatch)
    assert code == 0
    assert out == "0 answer sets\n"


def test_solve_alphabet_extension(capsys, monkeypatch):
    code, out, _ = call_main(["solve", "--alphabet", "p,q"], "p.",
                             capsys, monkeypatch)
    assert code == 0
    assert out == "{p}\n"
    # a bar over a label is no atom of any kind
    code, _, err = call_main(["solve", "--alphabet", "n_l_0"], "p.",
                             capsys, monkeypatch)
    assert code == 2
    assert err == "error: invalid bar atom name 'n_l_0'\n"


def test_check_faithful_structural_ok(capsys, monkeypatch):
    code, out, _ = call_main(["check", "faithful"], CLOSING,
                             capsys, monkeypatch)
    assert code == 0
    assert out == "faithful: yes\n"
    # the checks default to the library's cap
    args = build_parser().parse_args(["check", "faithful"])
    assert args.cap == DEFAULT_VERIFY_CAP


def test_check_faithful_polarity_fails_with_witness(capsys, monkeypatch):
    code, out, _ = call_main(["check", "faithful", "--mode", "polarity"],
                             CLOSING, capsys, monkeypatch)
    assert code == 1
    assert "faithful: no" in out
    assert "witness: {p, q, r}" in out


def test_check_strong(capsys, monkeypatch):
    code, out, _ = call_main(
        ["check", "strong", "--contexts", "5", "--seed", "1"],
        "p :- not q.", capsys, monkeypatch)
    assert code == 0
    assert out.count(": ok") == 5


def test_check_strong_reports_each_mismatch(capsys, monkeypatch):
    code, out, _ = call_main(
        ["check", "strong", "--mode", "polarity", "--contexts", "3"],
        "a v not c.\n", capsys, monkeypatch)
    assert code == 1
    assert out.splitlines()[0] == "context 0: mismatch witness {a}"
    assert all(line.endswith(": ok") or " mismatch witness " in line
               for line in out.splitlines())


def test_check_modular(tmp_path, capsys, monkeypatch):
    second = tmp_path / "second.lp"
    second.write_text("q :- not p.\n")
    code, out, _ = call_main(["check", "modular", "-j", str(second)],
                             "p :- not q.", capsys, monkeypatch)
    assert code == 0
    assert out == "modular: yes\n"


def test_check_modular_requires_second_file(capsys, monkeypatch):
    code, _, err = call_main(["check", "modular"], "p.", capsys, monkeypatch)
    assert code == 2
    assert err.splitlines()[-1] == "error: check modular requires -j FILE2"


@pytest.mark.parametrize("mode", ["polarity", "distributive"])
def test_check_modular_rejects_other_modes(tmp_path, capsys, monkeypatch,
                                           mode):
    second = tmp_path / "second.lp"
    second.write_text("q :- not p.\n")
    code, out, err = call_main(
        ["check", "modular", "--mode", mode, "--cap", "0", "-j", str(second)],
        "p :- not q.", capsys, monkeypatch)
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: check modular checks the structural translation only, "
        f"not --mode {mode}"]


def test_check_help_says_modular_enumerates_nothing(capsys, monkeypatch):
    code, out, _ = call_main(["check", "--help"], "", capsys, monkeypatch)
    assert code == 0
    assert "modular enumerates nothing" in " ".join(out.split())


def test_check_props(capsys, monkeypatch):
    code, out, _ = call_main(["check", "props"], CLOSING, capsys, monkeypatch)
    assert code == 0
    assert "yes" in out


def test_check_props_mismatch_names_a_witness(capsys, monkeypatch):
    """An equilibrium engine that loses a model makes ``check props``
    exit 1 and print the lost model as a witness."""
    engine = cli.equilibrium_models

    def lossy(*args, **kwargs):
        return frozenset(sorted(engine(*args, **kwargs), key=len)[1:])

    monkeypatch.setattr(cli, "equilibrium_models", lossy)
    code, out, _ = call_main(["check", "props"], "p v q.\n", capsys,
                             monkeypatch)
    assert code == 1
    lines = out.splitlines()
    assert "answer sets match equilibrium models: no" in lines
    assert len([line for line in lines if line.startswith("witness: ")]) == 1


def test_translate_output_does_not_depend_on_the_hash_seed():
    """No set or frozenset is iterated into the output: two hash seeds
    print the same bytes in every mode."""
    code, program, _ = run_cli(["gen", "--seed", "1", "--atoms", "40",
                                "--rules", "500", "--depth", "6"])
    assert code == 0
    for mode in ("structural", "polarity", "distributive"):
        outputs = []
        for hash_seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "nlp2dlp", "translate", "--mode", mode],
                input=program.encode(), capture_output=True,
                env={**os.environ, "PYTHONHASHSEED": hash_seed})
            assert proc.returncode == 0 and proc.stdout, mode
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], mode


def test_gen_is_deterministic_and_parseable():
    code1, out1, _ = run_cli(["gen", "--seed", "42"])
    code2, out2, _ = run_cli(["gen", "--seed", "42"])
    assert code1 == code2 == 0
    assert out1 == out2
    from nlp2dlp import parse
    parse(out1)


def test_stats_csv(capsys, monkeypatch):
    code, out, _ = call_main(["stats", "--family", "dnf_head",
                              "--n-max", "3"], "", capsys, monkeypatch)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,structural_size,distributive_size,distributive_overflow"
    assert len(lines) == 4


def test_parse_error_exits_2(capsys, monkeypatch):
    code, _, err = call_main(["solve"], "p :- ?", capsys, monkeypatch)
    assert code == 2
    assert "error" in err


def test_reserved_prefix_exits_2(capsys, monkeypatch):
    code, _, err = call_main(["translate"], "n_p :- q.", capsys, monkeypatch)
    assert code == 2
    assert "reserved prefix" in err


def test_cap_exceeded_exits_3(capsys, monkeypatch):
    atoms = ",".join(f"x{i}" for i in range(25))
    code, _, err = call_main(["solve", "--alphabet", atoms], "p.",
                             capsys, monkeypatch)
    assert code == 3
    assert "resource error" in err


def test_distributive_guard_exits_3(tmp_path, capsys, monkeypatch):
    from nlp2dlp import family_program, print_nested
    text = print_nested(family_program("dnf_head", 20))
    code, _, err = call_main(["translate", "--mode", "distributive"],
                             text, capsys, monkeypatch)
    assert code == 3
    assert "resource error" in err


@pytest.mark.parametrize("kind", sorted(DEEP_INPUTS))
def test_deep_input_translates(kind):
    from nlp2dlp import ProgramClass, classify, parse
    code, out, _ = run_cli(["translate"], DEEP_INPUTS[kind])
    assert code == 0
    assert classify(parse(out, allow_internal=True)) is ProgramClass.DISJUNCTIVE


def test_oracle_on_deep_body(tmp_path):
    body = ", ".join(("a", "not b")[i % 2] for i in range(2000))
    deep = f"p :- {body}.\n"
    code, out, _ = run_cli(["check", "props"], deep)
    assert code == 0 and out.endswith("yes\n")
    code, out, _ = run_cli(["solve"], deep)
    assert code == 0 and out == "{}\n"
    second = tmp_path / "second.lp"
    second.write_text("q :- not p.\n")
    code, out, _ = run_cli(["check", "modular", "-j", str(second)], deep)
    assert code == 0 and out == "modular: yes\n"
    literals = ", ".join(("a", "not b")[i % 2] for i in range(1000))
    code, _, _ = run_cli(["translate", "--mode", "distributive"],
                         f"p :- {literals}.\n")
    assert code == 0


def test_internal_error_exits_4_after_its_traceback(capsys, monkeypatch):
    def broken(args):
        raise KeyError("missing")

    monkeypatch.setattr("nlp2dlp.cli._cmd_solve", broken)
    code, _, err = call_main(["solve"], "p.", capsys, monkeypatch)
    assert code == 4
    lines = err.splitlines()
    assert lines[0] == "Traceback (most recent call last):"
    assert lines[-2] == "KeyError: 'missing'"
    assert lines[-1] == "internal error: KeyError: 'missing'"


def test_translate_simplify_reaches_every_mode(capsys, monkeypatch):
    from nlp2dlp import (
        parse, print_dlv, translate_distributive, translate_polarity_variant,
        translate_structural,
    )
    program = parse(CLOSING)
    expected = {
        "structural": translate_structural(program, simplify=True)[0],
        "polarity": translate_polarity_variant(program, simplify=True)[0],
        "distributive": translate_distributive(program)[0],
    }
    for mode, translated in expected.items():
        code, out, _ = call_main(["translate", "--simplify", "--mode", mode],
                                 CLOSING, capsys, monkeypatch)
        assert code == 0 and out == print_dlv(translated)


def test_unknown_flag_exits_2():
    code, _, err = run_cli(["solve", "--bogus"])
    assert code == 2


def test_translate_file_io(tmp_path):
    src = tmp_path / "in.lp"
    dst = tmp_path / "out.lp"
    src.write_text("not q :- r.\n")
    code, out, _ = run_cli(["translate", "-i", str(src), "-o", str(dst)])
    assert code == 0 and out == ""
    text = dst.read_text()
    assert ":- q, n_q." in text and "n_q :- not q." in text


def _last_line(err):
    return err.splitlines()[-1]


def test_missing_input_file_exits_2(tmp_path, capsys, monkeypatch):
    code, _, err = call_main(["translate", "-i", str(tmp_path / "missing.lp")],
                             "", capsys, monkeypatch)
    assert code == 2
    assert "Traceback" not in err
    assert _last_line(err).startswith("error:") and "missing.lp" in err


def test_directory_as_input_exits_2(tmp_path, capsys, monkeypatch):
    code, _, err = call_main(["translate", "-i", str(tmp_path)], "",
                             capsys, monkeypatch)
    assert code == 2
    assert "Traceback" not in err and _last_line(err).startswith("error:")


def test_unwritable_output_exits_2(tmp_path, capsys, monkeypatch):
    target = tmp_path / "no_such_dir" / "x.lp"
    code, _, err = call_main(["translate", "-o", str(target)], "p.",
                             capsys, monkeypatch)
    assert code == 2
    assert "Traceback" not in err and _last_line(err).startswith("error:")


@pytest.mark.parametrize("args", [
    ["solve", "--cap", "-1"],
    ["check", "props", "--cap", "-1"],
    ["check", "strong", "--contexts", "-3"],
    ["check", "strong", "--contexts", "0"],
    ["stats", "--family", "dnf_head", "--n-max", "0"],
    ["stats", "--family", "dnf_head", "--n-max", "3", "--guard", "-1"],
    ["solve", "--cap", "x"],
    ["gen", "--seed", "1", "--rules", "0"],
    ["gen", "--seed", "1", "--rules", "-1"],
    ["gen", "--seed", "1", "--depth", "-1"],
    ["gen", "--seed", "1", "--atoms", "-2"],
    ["gen", "--seed", "1", "--family", "bogus"],
    ["gen", "--seed", "1", "--depth", "49"],
])
def test_out_of_range_flag_exits_2(args, capsys, monkeypatch):
    code, out, err = call_main(args, "p.", capsys, monkeypatch)
    assert code == 2 and out == ""
    assert _last_line(err).startswith("error:") and args[-2] in err


@pytest.mark.parametrize("args, expected", [
    (["solve", "--cap", "0"], 3),
    (["check", "strong", "--contexts", "1"], 0),
    (["stats", "--family", "dnf_head", "--n-max", "1", "--guard", "0"], 0),
    (["gen", "--seed", "1", "--atoms", "1", "--rules", "1", "--depth", "1"],
     0),
    (["gen", "--seed", "1", "--depth", "48"], 0),
])
def test_flag_range_bounds_are_accepted(args, expected, capsys, monkeypatch):
    code, _, err = call_main(args, "p.", capsys, monkeypatch)
    assert code == expected, err


INVALID_UTF8 = b"p.\r\nq :- r,\n  s \xff."


def test_invalid_utf8_on_stdin_exits_2(capsys, monkeypatch):
    code, out, err = call_main(["translate"], INVALID_UTF8,
                               capsys, monkeypatch)
    assert code == 2 and out == ""
    assert err == "error: <stdin>:3:5: invalid UTF-8 byte 0xff\n"


def test_invalid_utf8_in_input_file_exits_2(tmp_path, capsys, monkeypatch):
    source = tmp_path / "bad.lp"
    source.write_bytes(INVALID_UTF8)
    code, out, err = call_main(["translate", "-i", str(source)], "",
                               capsys, monkeypatch)
    assert code == 2 and out == ""
    assert err == f"error: {source}:3:5: invalid UTF-8 byte 0xff\n"


# tokens of the surface syntax, names the parser or an atom list refuses,
# and a byte that is no UTF-8
SOUP = [b"p", b"q", b"a1", b"not", b"v", b",", b":-", b".", b"(", b")",
        b"true", b"false", b"l_0", b"n_p", b"Q", b"%", b"\n", b"#", b"\xff"]
ATOM_LISTS = ["p", "p,q", "q, a1", "l_0", "n_p", "n_l_0", "Q", "x y", ","]
# programs that the polarity variant translates unfaithfully
UNFAITHFUL = [CLOSING, "a v true :- not b.\n"]


@st.composite
def _stdin(draw):
    """Token soup, or a program with a few spans replaced: a generated
    one, or one on which ``check faithful|strong`` can exit 1."""
    if draw(st.booleans()):
        return b" ".join(draw(st.lists(st.sampled_from(SOUP), max_size=12)))
    text = draw(st.one_of(
        st.sampled_from(UNFAITHFUL),
        st.integers(0, 40).map(lambda seed: print_nested(
            generate_program(GeneratorConfig(seed=seed)))))).encode()
    for _ in range(draw(st.integers(0, 2))):
        at, cut = draw(st.integers(0, len(text))), draw(st.integers(0, 3))
        text = text[:at] + draw(st.sampled_from(SOUP + [b""])) \
            + text[at + cut:]
    return text


@st.composite
def _argv(draw):
    """A subcommand with flags drawn from small ranges, a few of them out
    of range; --cap is always given, so no enumeration outgrows it."""
    def flag(name, values):
        return [name, str(draw(values))] if draw(st.booleans()) else []

    mode = flag("--mode", st.sampled_from(MODES + ("magic",)))
    cap = ["--cap", str(draw(st.integers(0, 14)))]
    command = draw(st.sampled_from(["translate", "solve", "check", "stats",
                                    "gen"]))
    if command == "translate":
        return [command, *mode, *draw(st.sampled_from([[], ["--simplify"]]))]
    if command == "solve":
        return [command, *cap, *flag("--alphabet", st.sampled_from(ATOM_LISTS)),
                *flag("--project", st.sampled_from(ATOM_LISTS))]
    if command == "check":
        kind = draw(st.sampled_from(["faithful", "strong", "modular", "props"]))
        return [command, kind, *mode, *cap,
                *flag("--contexts", st.integers(0, 3)),
                *flag("--seed", st.integers(-1, 1))]
    family = flag("--family", st.sampled_from(GROWTH_FAMILIES + ("flat",)))
    if command == "stats":
        return [command, *family, *flag("--n-max", st.integers(0, 6)),
                *flag("--guard", st.integers(0, 300))]
    return [command, *family, *flag("--seed", st.integers(-1, 3)),
            *flag("--atoms", st.integers(0, 4)),
            *flag("--rules", st.integers(0, 4)),
            *flag("--depth", st.integers(0, 6))]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_argv(), _stdin())
@example(["check", "faithful", "--mode", "polarity", "--cap", "14"],
         CLOSING.encode())
def test_exit_codes_keep_their_meaning(args, data):
    """Whatever the flags and the input, ``main`` exits 0, 1, 2 or 3,
    never 4, and an exit 2 or 3 ends stderr with its documented line."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mp.setattr("sys.stdin",
                   io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        code = main(args)
    assert code in (0, 1, 2, 3), (args, data, err.getvalue())
    last = err.getvalue().splitlines()[-1:] or [""]
    if code == 2:
        assert last[0].startswith("error: "), (args, data, last)
    if code == 3:
        assert last[0].startswith("resource error: "), (args, data, last)
