"""CLI surface: parsing, config precedence, output formats, exit codes.

Everything runs in-process through cli.main(argv) so exit codes and
stdout/stderr can be asserted exactly; one test runs `python3 -m permpoly`
in a subprocess.
"""

import json
import os
import pathlib
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest

from permpoly import cli, gnq, poly, scan
from permpoly.cli import (COMMANDS, EXIT_FAIL, EXIT_OK, EXIT_USAGE, OPTIONS,
                          LSpecError, parse_lspec)
from permpoly.field import DEGREE_CAP, UsageError
from permpoly.poly import Add, FrobQ, Pow, S, Var


# --- L-spec parsing -------------------------------------------------------

def test_lspec_grammar():
    assert parse_lspec("x") == Var()
    assert parse_lspec("S(3)^2") == Pow(S(3, Var()), 2)
    assert parse_lspec("x + frob(S(2), 1)") == Add((Var(), FrobQ(S(2, Var()), 1)))
    assert parse_lspec("(x + S(1))^4") == Pow(Add((Var(), S(1, Var()))), 4)
    assert parse_lspec("x^2^2") == Pow(Pow(Var(), 2), 2)


@pytest.mark.parametrize("bad,pos", [
    ("S(3^2", 3),      # ')' expected where '^' sits
    ("x +", 3),        # dangling operator
    ("y", 0),          # unknown name
    ("S(3))", 4),      # trailing ')'
    ("frob(x 1)", 7),  # missing comma
    ("x @ 2", 2),      # stray character
])
def test_lspec_error_positions(bad, pos):
    with pytest.raises(LSpecError) as err:
        parse_lspec(bad)
    assert err.value.pos == pos
    assert f"position {pos}" in str(err.value)


# --- the option tables ------------------------------------------------------

def _resolve(argv):
    return cli._resolve(cli._build_parser().parse_args(argv))


def _sample(dest, other=False):
    """A valid flag text for dest, and a second one if other."""
    choices = OPTIONS[dest].choices
    if choices:
        return choices[0] if other else choices[-1]
    return "5" if other else "3"


def _argv(name, skip=None):
    """name with a sample flag for each of its required options but skip."""
    argv = [name]
    for dest in COMMANDS[name].required:
        if dest != skip:
            argv += [OPTIONS[dest].flag, _sample(dest)]
    return argv


@pytest.mark.parametrize("dest", list(OPTIONS))
def test_each_option_reads_the_same_from_its_flag_and_a_config_line(dest, tmp_path):
    opt = OPTIONS[dest]
    name = next(n for n, c in COMMANDS.items() if dest in cli._options(c))
    cfg = tmp_path / "run.cfg"
    base = _argv(name, dest)
    with_config = base + ["--config", str(cfg)]
    if dest not in COMMANDS[name].required:  # t2's q included
        assert getattr(_resolve(base), dest) == opt.default
    if opt.parse is cli._parse_bool:
        for spelling in ("1", "true", "yes", "on", "0", "false", "no", "off"):
            for text in (spelling, spelling.upper()):
                cfg.write_text(f"{dest} = {text}\n")
                flag = [opt.flag] if cli._parse_bool(text) else []
                assert getattr(_resolve(with_config), dest) is getattr(_resolve(base + flag), dest)
        flagged, config = base + [opt.flag], "off"
    else:
        for key in {dest, dest.replace("_", "-")}:
            cfg.write_text(f"{key} = {_sample(dest)}\n")
            value = getattr(_resolve(with_config), dest)
            assert value == getattr(_resolve(base + [opt.flag, _sample(dest)]), dest)
            assert value == opt.parse(_sample(dest))
        flagged, config = base + [opt.flag, _sample(dest)], _sample(dest, other=True)
    # an explicit flag beats the config value
    cfg.write_text(f"{dest} = {config}\n")
    assert getattr(_resolve(flagged + ["--config", str(cfg)]), dest) == \
        getattr(_resolve(flagged), dest)
    # a key of another command's option is parsed and ignored
    for other, command in COMMANDS.items():
        if dest not in cli._options(command):
            assert not hasattr(_resolve(_argv(other) + ["--config", str(cfg)]), dest)


@pytest.mark.parametrize("name", list(COMMANDS))
def test_each_missing_required_option_is_a_usage_error(name, tmp_path):
    cfg = tmp_path / "run.cfg"
    for dest in COMMANDS[name].required:
        message = f"{OPTIONS[dest].flag} is required (flag or config file)"
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            _resolve(_argv(name, dest))
        cfg.write_text(f"{dest} = {_sample(dest)}\n")
        args = _resolve(_argv(name, dest) + ["--config", str(cfg)])
        assert getattr(args, dest) == OPTIONS[dest].parse(_sample(dest))
    assert _resolve(_argv(name)).func is COMMANDS[name].func


def test_readme_lists_exactly_the_options_of_the_table():
    # README's option table names each key, its flag and the commands that
    # take it; no other flag of permpoly is named anywhere in README
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)` \| `(--[\w-]+)[^|]*\| ([^|]*) \|$", section, re.M)
    flags = {dest: opt.flag for dest, opt in OPTIONS.items()}
    assert {dest: flag for dest, flag, _ in rows} == flags
    for dest, _, taken_by in rows:
        named = set(COMMANDS) if taken_by.startswith("all") else \
            set(re.findall(r"`([\w-]+)`", taken_by)) & set(COMMANDS)
        assert named == {name for name, c in COMMANDS.items() if dest in cli._options(c)}, dest
    # pip's and pytest's flags aside
    assert set(re.findall(r"(?<![\w-])--[a-z][\w-]*", readme)) <= {
        *flags.values(), "--config", "--help", "--no-build-isolation", "--durations"}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_help_lists_exactly_the_flags_of_the_tables(name, capsys):
    assert cli.main([name, "--help"]) == EXIT_OK
    listed = re.findall(r"^  (?:-h, )?(--[\w-]+)", capsys.readouterr().out, re.M)
    flags = [OPTIONS[dest].flag for dest in cli._options(COMMANDS[name])]
    assert sorted(listed) == sorted(["--help", "--config", *flags])


# --- exit codes and formats ------------------------------------------------

def test_verify_t1_text_and_exit(capsys):
    assert cli.main(["verify-t1", "--k", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "T1 at k=2" in out and out.count("PASS") == 5


def test_verify_t1_json_schema(capsys):
    assert cli.main(["verify-t1", "--k", "2", "--format", "json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert set(obj) == {"k", "pp", "e1", "gcd_case1", "gcd_case2", "all_ok"}
    assert set(obj["pp"]) == {"is_pp", "method", "witness", "field", "elapsed_ms"}
    assert obj["all_ok"] is True and obj["pp"]["elapsed_ms"] == 0


def test_verify_t1_csv(capsys):
    assert cli.main(["verify-t1", "--k", "2", "--format", "csv"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "k,is_pp,e1,gcd_case1,gcd_case2,all_ok"
    assert out[1] == "2,true,true,1,x^2+1,true"


def test_verify_t1_odd_k_is_usage_error(capsys):
    assert cli.main(["verify-t1", "--k", "3"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err and "even k" in err


def test_missing_required_flag(capsys):
    assert cli.main(["verify-t1"]) == EXIT_USAGE
    assert "--k is required" in capsys.readouterr().err


def test_usage_errors_from_argparse(capsys):
    assert cli.main([]) == EXIT_USAGE
    assert cli.main(["bogus-command"]) == EXIT_USAGE
    assert cli.main(["verify-t1", "--k", "two"]) == EXIT_USAGE
    capsys.readouterr()
    assert cli.main(["--help"]) == EXIT_OK


def test_gcd_text_line(capsys):
    assert cli.main(["gcd", "--k", "2"]) == EXIT_OK
    assert capsys.readouterr().out == "case1: 1, case2: x^2+1\n"
    assert cli.main(["gcd", "--k", "1"]) == EXIT_OK
    assert capsys.readouterr().out == "case1: n/a (needs k >= 2), case2: x+1\n"


def test_gcd_json_null_case1(capsys):
    assert cli.main(["gcd", "--k", "1", "--format", "json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"k": 1, "case1": None, "case2": "x+1"}


def test_probe_always_exits_zero(capsys):
    assert cli.main(["probe-t1-odd", "--k", "1", "--format", "json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["is_pp"] is False and obj["note"] == "outside theorem hypothesis"
    assert cli.main(["probe-t1-odd", "--k", "2"]) == EXIT_USAGE


def test_probe_csv_witness_matches_json(capsys):
    # at k = 1 the collision witness is 0x0, which must not print as empty
    assert cli.main(["probe-t1-odd", "--k", "1", "--format", "json"]) == EXIT_OK
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert cli.main(["probe-t1-odd", "--k", "1", "--format", "csv"]) == EXIT_OK
    header, row = capsys.readouterr().out.splitlines()
    assert header == "k,is_pp,witness,note"
    assert row.split(",")[2] == witness == "0x0"


def test_probe_with_a_wrong_degree_bound_aborts(capsys, monkeypatch):
    # x^7 has degree 3; a bound of 2 sends it to the block tables, whose
    # spot check fails: exit 1, a verification failure, not a usage error
    cube = Pow(Var(), 7)
    monkeypatch.setattr(gnq, "build_t1_g", lambda k, ctx: cube)
    assert cli.main(["probe-t1-odd", "--k", "3"]) == EXIT_OK
    capsys.readouterr()
    true_bound = poly.degree_bound
    monkeypatch.setattr(poly, "degree_bound",
                        lambda f, m: 2 if f == cube else true_bound(f, m))
    assert cli.main(["probe-t1-odd", "--k", "3"]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("verification aborted:") and "direct evaluation" in err


def test_identities_exits(capsys):
    assert cli.main(["identities", "--k", "2", "--format", "csv"]) == EXIT_OK
    assert capsys.readouterr().out == "k,e1\n2,true\n"
    assert cli.main(["identities", "--k", "3"]) == EXIT_USAGE


def test_gnq_prints_polynomial(capsys):
    assert cli.main(["gnq", "--n", "7", "--q", "4", "--e", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.endswith("= x\n") and "g_(7,4)" in out
    assert cli.main(["gnq", "--n", "4", "--q", "4", "--e", "2"]) == EXIT_OK
    assert capsys.readouterr().out.endswith("= 0\n")


def test_gnq_rejects_bad_q(capsys):
    assert cli.main(["gnq", "--n", "7", "--q", "3", "--e", "2"]) == EXIT_USAGE
    assert "power of 2" in capsys.readouterr().err


def test_gnq_memo_bound_aborts_as_verification_failure(capsys, monkeypatch):
    monkeypatch.setattr(gnq, "MEMO_BOUND", 4)
    code = cli.main(["gnq", "--n", "65921", "--q", "4", "--e", "6"])
    assert code == EXIT_FAIL
    assert "verification aborted" in capsys.readouterr().err


def test_gnq_runs_to_the_degree_cap_and_override_ceilings_is_gone(tmp_path, capsys):
    # gnq allocates no whole-field array, so it runs to the packed engine's cap
    for e in (31, 32):
        assert cli.main(["gnq", "--n", "1", "--q", "2", "--e", str(e)]) == EXIT_OK
        assert capsys.readouterr().out.endswith("= 1\n")
    assert cli.main(["gnq", "--n", "1", "--q", "2", "--e", "33"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: degree 33 = 1*33 exceeds the cap of 32, past which the packed engine "
        "cannot multiply\n")
    # no flag or config key lifts the cap
    argv = ["gnq", "--n", "1", "--q", "2", "--e", "31"]
    assert cli.main(argv + ["--override-ceilings"]) == EXIT_USAGE
    assert "unrecognized arguments: --override-ceilings" in capsys.readouterr().err
    cfg = tmp_path / "big.cfg"
    cfg.write_text("override_ceilings = true\n")
    assert cli.main(argv + ["--config", str(cfg)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {cfg}:1: unknown key 'override_ceilings'\n"


def _tripwire(real, passes=lambda *args: False):
    """real, wrapped to raise AssertionError unless passes(*args)."""
    def wired(*args):
        if passes(*args):
            return real(*args)
        raise AssertionError(f"{real.__name__}{args} ran")
    return wired


@pytest.mark.parametrize("argv, arrays, per_element", [
    pytest.param(["probe-t1-odd", "--k", "5"],
                 "exhaustive scan arrays of GF(4^15) mod x^30+x+1", 5, id="probe-t1-odd-k5"),
    pytest.param(["t2", "--q", "2", "--k", "10", "--L", "S(11)^2"],
                 "exhaustive scan arrays of GF(2^30) mod x^30+x+1", 5, id="t2-q2-k10"),
    pytest.param(["oracle", "--n", "16383", "--q", "2", "--e", "29"],
                 "log tables of GF(2^29) mod x^29+x^2+1", 12, id="oracle-e29"),
    pytest.param(["oracle", "--n", "16383", "--q", "2", "--e", "31"],
                 "log tables of GF(2^31) mod x^31+x^3+1", 12, id="oracle-e31"),
    pytest.param(["oracle", "--n", "16383", "--q", "2", "--e", "32"],
                 "log tables of GF(2^32) mod x^32+x^7+x^3+x^2+1", 12, id="oracle-e32"),
    pytest.param(["search", "--q", "2", "--e", "32", "--from", "1", "--to", "2"],
                 "log tables of GF(2^32) mod x^32+x^7+x^3+x^2+1", 12, id="search-e32"),
])
def test_past_the_byte_bound_exits_2_before_allocating(argv, arrays, per_element, capsys,
                                                       monkeypatch):
    # tripwires in front of every whole-field array, point set and log
    # table build; only a Hamming ball of at most 2^16 points and the
    # factoring of a field degree pass
    for name in ("_block_values", "field_values", "_oracle_translates"):
        monkeypatch.setattr(scan, name, _tripwire(getattr(scan, name)))
    monkeypatch.setattr(scan, "_hamming_ball", _tripwire(
        scan._hamming_ball, lambda m, radius: scan._ball_size(m, radius) <= 1 << 16))
    monkeypatch.setattr(scan.gf2poly, "_prime_factors", _tripwire(
        scan.gf2poly._prime_factors, lambda n: n <= DEGREE_CAP))
    assert cli.main(argv) == EXIT_USAGE
    order = 1 << int(re.search(r"mod x\^(\d+)", arrays)[1])
    assert capsys.readouterr().err == (
        f"error: {arrays} would hold {per_element * order} bytes at their peak, "
        f"above the bound of 4294967296\n")


@pytest.mark.parametrize("argv", [
    ["search", "--q", "2", "--e", "29", "--from", "1", "--to", "2"],
    ["oracle", "--n", "3", "--q", "2", "--e", "29"],
])
def test_log_tables_past_the_bound_are_a_usage_error(argv, capsys, monkeypatch):
    # GF(2^29)'s tables would peak at 6 GiB; the refusal comes before the
    # factoring of 2^29 - 1, which a tripwire here turns into an exit 1
    factor = scan.gf2poly._prime_factors

    def tripwire(n):
        if n == (1 << 29) - 1:
            raise AssertionError("factored")
        return factor(n)

    monkeypatch.setattr(scan.gf2poly, "_prime_factors", tripwire)
    assert cli.main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: log tables of GF(2^29) mod x^29+x^2+1 would hold 6442450944 bytes "
        "at their peak, above the bound of 4294967296\n")


def test_oracle_roundtrip(capsys):
    assert cli.main(["oracle", "--n", "23", "--q", "4", "--e", "3",
                     "--format", "json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"n": 23, "q": 4, "e": 3, "oracle_ok": True}


def test_oracle_at_gf4_7(capsys):
    # GF(4^7) has order 16384: the oracle reads rows at a Hamming ball
    assert cli.main(["oracle", "--n", "65921", "--q", "4", "--e", "7",
                     "--format", "json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"n": 65921, "q": 4, "e": 7, "oracle_ok": True}


def test_t2_pass_fail_and_parse_errors(capsys):
    assert cli.main(["t2", "--k", "2", "--L", "S(3)^2"]) == EXIT_OK
    capsys.readouterr()
    assert cli.main(["t2", "--k", "2", "--L", "x"]) == EXIT_FAIL
    capsys.readouterr()
    assert cli.main(["t2", "--k", "2", "--L", "S(3)^2 +"]) == EXIT_USAGE
    assert "position" in capsys.readouterr().err
    assert cli.main(["t2", "--k", "2", "--L", "x^3"]) == EXIT_USAGE
    assert "power of 2" in capsys.readouterr().err


def test_modulus_flag_symbolic_and_hex(capsys):
    assert cli.main(["gnq", "--n", "7", "--q", "4", "--e", "2",
                     "--modulus", "x^4+x^3+1"]) == EXIT_OK
    out1 = capsys.readouterr().out
    assert "x^4+x^3+1" in out1
    assert cli.main(["gnq", "--n", "7", "--q", "4", "--e", "2",
                     "--modulus", "0x19"]) == EXIT_OK
    assert capsys.readouterr().out == out1
    assert cli.main(["gnq", "--n", "7", "--q", "4", "--e", "2",
                     "--modulus", "x^4+x^2+1"]) == EXIT_USAGE  # reducible
    assert "error:" in capsys.readouterr().err


def test_verify_corollary_rejects_modulus(capsys):
    # the corollary is pinned to GF(4^6) with the default modulus
    assert cli.main(["verify-corollary", "--modulus", "x^12+x^6+x^4+x+1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "--modulus does not apply" in captured.err


# --- search ---------------------------------------------------------------

def test_search_csv_and_worker_determinism(capsys):
    argv = ["search", "--q", "4", "--e", "3", "--from", "1", "--to", "200",
            "--format", "csv"]
    assert cli.main(argv) == EXIT_OK
    run1 = capsys.readouterr().out
    assert run1.splitlines()[0] == "n,e,q,verified_by,elapsed_ms"
    for _ in range(2):
        assert cli.main(argv) == EXIT_OK
        assert capsys.readouterr().out == run1


@pytest.mark.parametrize("e, n_to", [(6, 1000), (7, 600)])
def test_search_orbit_verdicts_ignore_the_row_budget(e, n_to, capsys, monkeypatch):
    # the orbit rows kept at e = 6 and e = 7, or none, give the same output
    argv = ["search", "--q", "4", "--e", str(e), "--from", "1", "--to", str(n_to),
            "--format", "csv"]
    assert cli.main(argv) == EXIT_OK
    run1 = capsys.readouterr().out
    monkeypatch.setattr(scan, "POWER_ROW_BUDGET", 0)
    assert cli.main(argv) == EXIT_OK
    assert capsys.readouterr().out == run1
    assert len(run1.splitlines()) > 10


def test_python_m_permpoly_runs_the_command_line(capsys):
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["search", "--q", "4", "--e", "3", "--from", "1", "--to", "60", "--format", "csv"]
    proc = subprocess.run([sys.executable, "-m", "permpoly", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert cli.main(argv) == EXIT_OK
    assert (proc.returncode, proc.stdout) == (EXIT_OK, capsys.readouterr().out)
    bad = subprocess.run([sys.executable, "-m", "permpoly", "search", "--q", "3", "--e", "2",
                          "--from", "1", "--to", "5"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert bad.returncode == EXIT_USAGE and "q must be a power of 2" in bad.stderr


def test_search_timing_fills_elapsed_ms(capsys, monkeypatch):
    # a clock that advances one second per read: the scan's start, then one read per hit
    ticks = iter(range(1 << 20))
    monkeypatch.setattr(gnq, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    argv = ["search", "--q", "4", "--e", "6", "--from", "65900", "--to", "66000",
            "--format", "csv"]
    assert cli.main(argv) == EXIT_OK
    plain = capsys.readouterr().out.splitlines()
    assert "65921,6,4,exhaustive,0" in plain
    assert cli.main(argv + ["--timing"]) == EXIT_OK
    timed = capsys.readouterr().out.splitlines()
    assert timed[0] == plain[0] and len(timed) == len(plain) > 1
    for i, (row, untimed) in enumerate(zip(timed[1:], plain[1:]), start=1):
        assert row == untimed.removesuffix(",0") + f",{1000 * i}"


def test_search_resume_skips_and_empty_range(capsys):
    assert cli.main(["search", "--q", "4", "--e", "2", "--from", "1",
                     "--to", "5", "--resume", "5", "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == []
    assert cli.main(["search", "--q", "4", "--e", "2", "--from", "5",
                     "--to", "1"]) == EXIT_USAGE


def test_search_json_matches_csv(capsys):
    base = ["search", "--q", "4", "--e", "2", "--from", "1", "--to", "60"]
    assert cli.main(base + ["--format", "json"]) == EXIT_OK
    triples = json.loads(capsys.readouterr().out)
    assert cli.main(base + ["--format", "csv"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == len(triples)
    for row, t in zip(rows, triples):
        assert row == f"{t['n']},{t['e']},{t['q']},{t['verified_by']},0"


# --- config files and --out -------------------------------------------------

def test_config_supplies_values_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\nk = 2\nformat = csv\n")
    assert cli.main(["gcd", "--config", str(cfg)]) == EXIT_OK
    assert capsys.readouterr().out == "k,case1,case2\n2,1,x^2+1\n"
    # explicit flag beats the config value
    assert cli.main(["gcd", "--config", str(cfg), "--format", "text"]) == EXIT_OK
    assert capsys.readouterr().out == "case1: 1, case2: x^2+1\n"


def test_config_search_keys(tmp_path, capsys):
    cfg = tmp_path / "search.cfg"
    cfg.write_text("q = 4\ne = 2\nn-from = 1\nn_to = 10\nformat = csv\n")
    assert cli.main(["search", "--config", str(cfg)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "n,e,q,verified_by,elapsed_ms"


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("colour = blue\n")
    assert cli.main(["gcd", "--k", "2", "--config", str(cfg)]) == EXIT_USAGE
    assert "unknown key" in capsys.readouterr().err


def test_config_rejects_malformed_line_and_bad_format(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("k: 2\n")
    assert cli.main(["gcd", "--config", str(cfg)]) == EXIT_USAGE
    assert "expected key=value" in capsys.readouterr().err
    cfg.write_text("format = xml\n")
    assert cli.main(["gcd", "--k", "2", "--config", str(cfg)]) == EXIT_USAGE
    assert "format" in capsys.readouterr().err
    assert cli.main(["gcd", "--k", "2", "--config",
                     str(tmp_path / "absent.cfg")]) == EXIT_USAGE


def test_out_writes_file_instead_of_stdout(tmp_path, capsys):
    target = tmp_path / "result.txt"
    assert cli.main(["gcd", "--k", "2", "--out", str(target)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert target.read_text() == "case1: 1, case2: x^2+1\n"


def test_internal_value_error_is_a_failure_not_a_usage_error(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("planted fault")

    monkeypatch.setattr(gnq, "verify_t1", broken)
    assert cli.main(["verify-t1", "--k", "2"]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert "internal error: ValueError: planted fault" in err and "Traceback" in err
    monkeypatch.setattr(scan, "bijection_from_values", broken)
    assert cli.main(["search", "--q", "4", "--e", "2", "--from", "1", "--to", "9"]) == EXIT_FAIL
    assert "planted fault" in capsys.readouterr().err
    # argument validation inside the pipelines stays a usage error
    assert cli.main(["search", "--q", "3", "--e", "2", "--from", "1", "--to", "9"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: q must be a power of 2, got 3\n"


def test_config_value_and_out_path_errors_are_usage_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("k = two\n")
    assert cli.main(["gcd", "--config", str(cfg)]) == EXIT_USAGE
    assert f"{cfg}:1:" in capsys.readouterr().err
    assert cli.main(["gcd", "--k", "2", "--out", str(tmp_path / "no" / "such.txt")]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err
    assert cli.main(["gnq", "--n", "7", "--q", "4", "--e", "2",
                     "--modulus", "0xzz"]) == EXIT_USAGE
    assert "--modulus" in capsys.readouterr().err


def test_workers_validation(capsys, tmp_path):
    # search runs in one thread: no command takes --workers, by flag or config
    assert "workers" not in OPTIONS
    for name in COMMANDS:
        assert cli.main([name, "--help"]) == EXIT_OK
        assert "--workers" not in capsys.readouterr().out, name
    assert cli.main(["gcd", "--k", "2", "--workers", "2"]) == EXIT_USAGE
    assert "--workers" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 2\nworkers = 2\n")
    assert cli.main(["gcd", "--config", str(cfg)]) == EXIT_USAGE
    assert f"{cfg}:2: unknown key 'workers'" in capsys.readouterr().err
