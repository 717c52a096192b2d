import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import centerbook
from centerbook.cli import EXIT_BUDGET, EXIT_DOCUMENT, EXIT_INVARIANT, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_rejects_missing_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["reproduce", "--figure", "5"])


def test_parser_defaults():
    args = build_parser().parse_args(
        ["simulate", "wbg.json", "book.json", "--agent", "halfer+edt"]
    )
    assert args.command == "simulate"
    assert args.rho == "1"
    assert args.linkage == "alike"
    assert args.tie == "reject"
    assert args.format == "plain"
    assert not args.decimal
    assert not args.allow_illegitimate


SUBCOMMANDS = ("credence", "evaluate", "simulate", "synthesize", "reproduce")


def _exit_output(capsys, parse, argv):
    with pytest.raises(SystemExit) as info:
        parse(argv)
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        [],
        ["frobnicate"],
        ["simulatee", "a.json"],
        *[[name, "--help"] for name in SUBCOMMANDS],
        ["credence", "s.json", "--rule", "quarter", "--obs", "o"],
        ["evaluate", "s.json", "b.json"],
        ["simulate", "s.json", "b.json", "--agent", "halfer+cdt", "--bogus"],
        ["synthesize", "s.json", "t.json", "--agent", "halfer+cdt", "--max-grid-points", "x"],
        ["reproduce", "--figure", "5"],
    ],
)
def test_help_and_usage_text_match_the_full_parser(capsys, argv):
    expected = _exit_output(capsys, build_parser().parse_args, argv)
    assert _exit_output(capsys, main, argv) == expected
    assert expected[1] or expected[2]


def test_main_reads_sys_argv_by_default(capsys, monkeypatch):
    argv = ["reproduce", "--figure", "4"]
    expected = run(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["centerbook", *argv])
    assert main() == expected[0]
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == expected[1:]


def test_credence_subcommand(capsys):
    code, out, _ = run(
        capsys, "credence", "builtin:wbg", "--rule", "thirder", "--obs", "white"
    )
    assert code == 0
    assert "WG/monday (beauty)" in out
    assert out.count("1/3") == 6


def test_evaluate_subcommand(capsys):
    code, out, _ = run(
        capsys, "evaluate", "builtin:wbg", "builtin:wbg-book", "--agent", "thirder+cdt"
    )
    assert code == 0
    lines = out.splitlines()
    assert any("bet1" in line and "accept" in line for line in lines)
    assert any("bet2" in line and "-2" in line and "reject" in line for line in lines)


def test_simulate_subcommand_verdict(capsys):
    code, out, _ = run(
        capsys, "simulate", "builtin:wbg", "builtin:wbg-book", "--agent", "halfer+edt"
    )
    assert code == 0
    assert "dutch book: yes" in out
    assert "worst world total: -2" in out


def test_simulate_same_info_linkage_escapes(capsys):
    code, out, _ = run(
        capsys,
        "simulate",
        "builtin:wbg",
        "builtin:wbg-book",
        "--agent",
        "halfer+edt",
        "--linkage",
        "same-info",
    )
    assert code == 0
    assert "dutch book: no" in out


def test_simulate_illegitimate_book_exit_code(capsys):
    code, out, err = run(
        capsys,
        "simulate",
        "builtin:original-sb",
        "builtin:anti-thirder",
        "--agent",
        "thirder+cdt",
        "--tie",
        "accept",
    )
    assert code == EXIT_INVARIANT
    assert "error:" in err and "monday" in err and "tuesday" in err


def test_simulate_illegitimate_book_with_override(capsys):
    code, out, _ = run(
        capsys,
        "simulate",
        "builtin:original-sb",
        "builtin:anti-thirder",
        "--agent",
        "thirder+cdt",
        "--tie",
        "accept",
        "--allow-illegitimate",
    )
    assert code == 0
    assert "dutch book: yes" in out


def test_reproduce_every_figure_runs(capsys):
    for figure in (1, 2, 3, 4, 6, 7):
        code, out, _ = run(capsys, "reproduce", "--figure", str(figure))
        assert code == 0
        assert out.strip()


def test_reproduce_figure_2_table(capsys):
    _, out, _ = run(capsys, "reproduce", "--figure", "2")
    lines = {line.split()[0]: line for line in out.splitlines() if line.strip()}
    assert "bet1: -15" in lines["pre"] and "bet1: 15" in lines["pre"]
    assert "bet2: 10" in lines["monday"] and "bet2: -10" in lines["monday"]
    assert "bet2: -10" in lines["tuesday"]
    assert lines["total"].split() == ["total", "-5", "-5"]


def test_reproduce_figure_4_table(capsys):
    _, out, _ = run(capsys, "reproduce", "--figure", "4")
    lines = {line.split()[0]: line for line in out.splitlines() if line.strip()}
    assert lines["total"].split() == ["total", "-2", "-2", "-2", "-2"]
    assert "bet1: 22" in lines["pre"] and "bet1: -20" in lines["pre"]
    assert "bet2: -24" in lines["monday"] and "bet2: 9" in lines["monday"]
    assert "bet2: 9" in lines["tuesday"] and "bet2: -24" not in lines["tuesday"]


def test_reproduce_is_byte_stable(capsys):
    _, first, _ = run(capsys, "reproduce", "--figure", "4")
    _, second, _ = run(capsys, "reproduce", "--figure", "4")
    assert first == second


def test_reproduce_matches_simulate_on_bundled_documents(capsys):
    _, reproduced, _ = run(capsys, "reproduce", "--figure", "4")
    _, simulated, _ = run(
        capsys, "simulate", "builtin:wbg", "builtin:wbg-book", "--agent", "halfer+edt"
    )
    assert reproduced == simulated
    _, reproduced2, _ = run(capsys, "reproduce", "--figure", "2")
    _, simulated2, _ = run(
        capsys,
        "simulate",
        "builtin:original-sb",
        "builtin:hitchcock",
        "--agent",
        "halfer+cdt",
        "--tie",
        "accept",
    )
    assert reproduced2 == simulated2
    _, reproduced7, _ = run(capsys, "reproduce", "--figure", "7")
    _, simulated7, _ = run(
        capsys,
        "simulate",
        "builtin:two-beauties",
        "builtin:two-beauties-book",
        "--agent",
        "halfer+edt",
    )
    assert reproduced7 == simulated7


def test_csv_format_parses(capsys):
    _, out, _ = run(capsys, "reproduce", "--figure", "4", "--format", "csv")
    table_text = out.split("all offers accepted")[0]
    rows = list(csv.reader(io.StringIO(table_text)))
    assert rows[0][1:] == ["WG (1/4)", "WO (1/4)", "BO (1/4)", "BG (1/4)"]
    assert rows[-1] == ["total", "-2", "-2", "-2", "-2"]


def test_decimal_display(capsys):
    _, out, _ = run(capsys, "reproduce", "--figure", "4", "--decimal")
    assert "0.25" in out


def test_synthesize_subcommand(capsys):
    code, out, _ = run(
        capsys,
        "synthesize",
        "builtin:wbg",
        "builtin:wbg-template",
        "--agent",
        "halfer+edt",
    )
    assert code == 0
    assert "outcome: feasible" in out
    assert "accept bet2 at (white, beauty)" in out
    assert "dutch book: yes" in out


def test_synthesize_infeasible(capsys):
    code, out, _ = run(
        capsys,
        "synthesize",
        "builtin:wbg",
        "builtin:wbg-template",
        "--agent",
        "thirder+cdt",
    )
    assert code == 0
    assert "outcome: infeasible_lp" in out
    assert "accept-all" in out


def test_synthesize_grid_mode(capsys):
    code, out, _ = run(
        capsys,
        "synthesize",
        "builtin:wbg",
        "builtin:wbg-template",
        "--agent",
        "thirder+cdt",
        "--grid-step",
        "1",
        "--bounds",
        "0/20",
    )
    assert code == 0
    assert "outcome: infeasible_over_grid" in out
    assert "194481 point(s)" in out


def test_grid_budget_exit_code(capsys):
    code, _, err = run(
        capsys,
        "synthesize",
        "builtin:wbg",
        "builtin:wbg-template",
        "--agent",
        "halfer+edt",
        "--grid-step",
        "1",
        "--max-grid-points",
        "10",
    )
    assert code == EXIT_BUDGET
    assert "budget" in err


def test_document_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(
        capsys, "credence", str(bad), "--rule", "thirder", "--obs", "white"
    )
    assert code == EXIT_DOCUMENT
    assert "error:" in err


def test_invariant_error_exit_code(tmp_path, capsys):
    doc = {
        "worlds": [{"id": "a", "prior": "1/2"}, {"id": "b", "prior": "1/4"}],
        "slots": ["s"],
        "centers": [{"world": "a", "slot": "s", "observation": "o"}],
    }
    path = tmp_path / "bad_priors.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "credence", str(path), "--rule", "thirder", "--obs", "o")
    assert code == EXIT_INVARIANT
    assert "priors sum to 3/4" in err


def test_bad_agent_spec_is_a_document_error(capsys):
    code, _, err = run(
        capsys,
        "simulate",
        "builtin:wbg",
        "builtin:wbg-book",
        "--agent",
        "frequentist+cdt",
    )
    assert code == EXIT_DOCUMENT
    assert "agent spec" in err


def test_agent_spec_order_insensitive(capsys):
    _, first, _ = run(
        capsys, "simulate", "builtin:wbg", "builtin:wbg-book", "--agent", "cdt+thirder"
    )
    _, second, _ = run(
        capsys, "simulate", "builtin:wbg", "builtin:wbg-book", "--agent", "thirder+cdt"
    )
    assert first == second


def test_simulate_file_paths(tmp_path, capsys):
    from centerbook.bundled import bundled_document

    scenario = tmp_path / "wbg.json"
    scenario.write_text(json.dumps(bundled_document("wbg")), encoding="utf-8")
    book = tmp_path / "book.json"
    book.write_text(json.dumps(bundled_document("wbg-book")), encoding="utf-8")
    code, out, _ = run(
        capsys, "simulate", str(scenario), str(book), "--agent", "halfer+edt"
    )
    assert code == 0
    assert "dutch book: yes" in out


BIG = "7" * 5000  # longer than the 4,300-digit limit on int(str)


@pytest.mark.parametrize("prior", [f'"{BIG}/3"', BIG], ids=["fraction-string", "bare-number"])
def test_oversize_integer_in_a_document_exits_3(tmp_path, capsys, prior):
    doc = {
        "worlds": [{"id": "a", "prior": "PRIOR"}],
        "slots": ["s"],
        "centers": [{"world": "a", "slot": "s", "observation": "o"}],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc).replace('"PRIOR"', prior), encoding="utf-8")
    code, _, err = run(capsys, "credence", str(path), "--rule", "thirder", "--obs", "o")
    assert code == EXIT_DOCUMENT
    assert "worlds[0].prior" in err and "5000 digits" in err
    assert len(err) < 300


def test_oversize_bounds_exits_3_with_a_short_message(capsys):
    code, _, err = run(
        capsys,
        "synthesize",
        "builtin:wbg",
        "builtin:wbg-template",
        "--agent",
        "thirder+cdt",
        "--bounds",
        f"0/{BIG}",
    )
    assert code == EXIT_DOCUMENT
    assert "--bounds" in err and "5000 digits" in err
    assert len(err) < 300


SCENARIO = {
    "worlds": [{"id": "h", "prior": "1/2"}, {"id": "t", "prior": "1/2"}],
    "slots": ["mon"],
    "centers": [
        {"world": "h", "slot": "mon", "observation": "o"},
        {"world": "t", "slot": "mon", "observation": "o"},
    ],
}


def write_scenario(tmp_path, text: str):
    path = tmp_path / "scenario.json"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    return path


def test_non_utf8_document_exits_3(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_bytes(b"\xff\xfe{}")
    code, _, err = run(capsys, "credence", str(path), "--rule", "thirder", "--obs", "o")
    assert code == EXIT_DOCUMENT
    assert err.startswith("error:") and str(path) in err and "UTF-8" in err


def test_deeply_nested_document_exits_3(tmp_path, capsys):
    path = write_scenario(tmp_path, "[" * 100_000 + "]" * 100_000)
    code, _, err = run(capsys, "credence", str(path), "--rule", "thirder", "--obs", "o")
    assert code == EXIT_DOCUMENT
    assert err.startswith("error:") and str(path) in err and "nested" in err


def test_lone_surrogate_label_exits_3_naming_the_field(tmp_path, capsys):
    text = json.dumps(SCENARIO).replace('"id": "h"', '"id": "h\\ud800"')
    path = write_scenario(tmp_path, text)
    code, _, err = run(capsys, "credence", str(path), "--rule", "thirder", "--obs", "o")
    assert code == EXIT_DOCUMENT
    assert f"{path}.worlds[0].id" in err and "surrogate" in err
    err.encode("utf-8")  # the message itself is printable


def test_surrogate_pairs_are_text(tmp_path, capsys):
    text = json.dumps(SCENARIO).replace('"observation": "o"', '"observation": "\\ud83d\\ude00"')
    path = write_scenario(tmp_path, text)
    code, out, _ = run(capsys, "credence", str(path), "--rule", "thirder", "--obs", "\U0001f600")
    assert code == 0
    assert "1/2" in out


@pytest.mark.parametrize("pre", [1, [1], "yes", False, None])
@pytest.mark.parametrize("kind", ["book", "template"])
def test_pre_offer_must_be_true(tmp_path, capsys, kind, pre):
    bet = {"id": "b", "cost": "1", "payout": "2", "payoff_event": ["h"], "offer": {"pre": pre}}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO), encoding="utf-8")
    book = tmp_path / f"{kind}.json"
    book.write_text(json.dumps({"bets": [bet]}), encoding="utf-8")
    command = "simulate" if kind == "book" else "synthesize"
    code, _, err = run(capsys, command, str(scenario), str(book), "--agent", "thirder+cdt")
    assert code == EXIT_DOCUMENT
    assert f"{book}.bets[0].offer.pre: expected true" in err


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe{}",
        b"[" * 100_000 + b"]" * 100_000,
        json.dumps(SCENARIO).replace('"id": "h"', '"id": "h\\ud800"').encode(),
    ],
    ids=["non-utf8", "deep-nesting", "lone-surrogate"],
)
def test_undecodable_documents_exit_3_without_a_traceback(tmp_path, content):
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    src = str(Path(centerbook.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-m", "centerbook.cli", "credence", str(path),
         "--rule", "thirder", "--obs", "o"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert result.returncode == EXIT_DOCUMENT
    assert result.stderr.startswith(b"error:") and b"Traceback" not in result.stderr
