import json
import subprocess
import sys

import pytest

from prodex.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- expand ------------------------------------------------------------------


def test_expand_pads_to_order(capsys):
    code, out, _ = run(capsys, "expand", "--coeffs", "1,-1", "--order", "4")
    assert code == 0
    assert out == "1 1\n2 0\n3 0\n4 0\n"


def test_expand_binary_pattern_json(capsys):
    code, out, _ = run(capsys, "expand", "--coeffs", "1,1,1,1,1,1,1,1,1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "order": 8,
        "exponents": ["-1", "-1", "0", "-1", "0", "0", "0", "-1"],
    }


def test_expand_zero_tail(capsys):
    code, out, _ = run(capsys, "expand", "--coeffs", "1,-1,-1", "--order", "6")
    assert code == 0
    assert out.splitlines() == ["1 1", "2 1", "3 1", "4 1", "5 2", "6 2"]


def test_expand_non_unit_constant_is_math_failure(capsys):
    code, _, err = run(capsys, "expand", "--coeffs", "2,1")
    assert code == 2
    assert "constant term" in err


def test_expand_unparseable_coeffs_is_usage_failure(capsys):
    code, _, err = run(capsys, "expand", "--coeffs", "1,x,3")
    assert code == 1
    assert "error" in err


# --- invert ------------------------------------------------------------------


def test_invert_ones_tilde(capsys):
    code, out, _ = run(capsys, "invert", "--ones", "--order", "8", "--tilde")
    assert code == 0
    assert out.splitlines() == [
        "1 1", "2 2", "3 1", "4 4", "5 1", "6 0", "7 1", "8 14",
    ]


def test_invert_zeros(capsys):
    code, out, _ = run(capsys, "invert", "--exponents", "0,0,0")
    assert code == 0
    assert out.splitlines() == ["1 0", "2 0", "3 0"]


def test_invert_twice_is_identity(capsys):
    code, first, _ = run(capsys, "invert", "--exponents", "1,1,1,1,2,2")
    assert code == 0
    values = ",".join(line.split()[1] for line in first.splitlines())
    # leading negative values need the = form, as usual with argparse CLIs
    code, second, _ = run(capsys, "invert", f"--exponents={values}")
    assert code == 0
    assert second.splitlines() == ["1 1", "2 1", "3 1", "4 1", "5 2", "6 2"]


# --- ghost / unghost ---------------------------------------------------------


def test_ghost_of_ones(capsys):
    code, out, _ = run(capsys, "ghost", "--ones", "--order", "6")
    assert code == 0
    assert out.splitlines() == ["1 1", "2 3", "3 4", "4 7", "5 6", "6 12"]


def test_unghost_sigma(capsys):
    code, out, _ = run(capsys, "unghost", "--values", "1,3,4,7,6,12")
    assert code == 0
    assert out.splitlines() == ["1 1", "2 1", "3 1", "4 1", "5 1", "6 1"]


def test_unghost_reports_failing_index(capsys):
    code, _, err = run(capsys, "unghost", "--values", "1,2")
    assert code == 2
    assert "not realizable at N=2, remainder 1" in err


# --- family / fermat / check -------------------------------------------------


def test_family_series(capsys):
    code, out, _ = run(capsys, "family", "--d", "2", "--order", "4")
    assert code == 0
    assert out.splitlines() == ["0 1", "1 -1", "2 -2", "3 -4", "4 -8"]


def test_family_expand_shows_quotients_at_primes(capsys):
    code, out, _ = run(capsys, "family", "--d", "1", "--order", "8", "--expand")
    assert code == 0
    assert out.splitlines() == [
        "1 1", "2 1", "3 2", "4 3", "5 6", "6 8", "7 18", "8 27",
    ]


def test_fermat_witness_plain(capsys):
    code, out, _ = run(capsys, "fermat", "--d", "1", "--p", "3")
    assert code == 0
    assert "quotient 2" in out.splitlines()
    assert out.splitlines()[-1] == "identity OK"


def test_fermat_witness_json(capsys):
    code, out, _ = run(capsys, "fermat", "--d", "1", "--p", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["quotient"] == "6"


def test_fermat_rejects_composite(capsys):
    code, _, err = run(capsys, "fermat", "--d", "1", "--p", "9")
    assert code == 2
    assert "not prime" in err


def test_check_command(capsys):
    code, out, _ = run(capsys, "check", "--a", "10", "--p", "7", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"a": "10", "p": "7", "ok": True}


# --- wieferich ---------------------------------------------------------------


def test_wieferich_scan_to_10000(capsys):
    code, out, _ = run(capsys, "wieferich", "--from", "2", "--to", "10000")
    assert code == 0
    lines = out.splitlines()
    assert "primes_tested 1229" in lines
    assert lines[-2:] == ["hit 1093", "hit 3511"]


def test_wieferich_output_independent_of_threads(capsys):
    _, one_thread, _ = run(capsys, "wieferich", "--from", "2", "--to", "2000000",
                           "--format", "json")
    _, four_threads, _ = run(capsys, "wieferich", "--from", "2", "--to", "2000000",
                             "--format", "json", "--threads", "4")
    _, auto_threads, _ = run(capsys, "wieferich", "--from", "2", "--to", "2000000",
                             "--format", "json", "--threads", "auto")
    assert one_thread == four_threads == auto_threads


def test_wieferich_rejects_reversed_range(capsys):
    code, _, err = run(capsys, "wieferich", "--from", "100", "--to", "10")
    assert code == 1
    assert "invalid range" in err


# --- partitions ----------------------------------------------------------------


def test_partitions_plain(capsys):
    code, out, _ = run(capsys, "partitions", "--order", "5")
    assert code == 0
    assert out.splitlines() == ["0 1", "1 1", "2 2", "3 3", "4 5", "5 7"]


def test_partitions_via_product(capsys):
    code, out, _ = run(capsys, "partitions", "--order", "10", "--via-product")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "equal true"
    assert lines[-2] == "10 42 42"


def test_partitions_order_zero(capsys):
    code, out, _ = run(capsys, "partitions", "--order", "0")
    assert code == 0
    assert out == "0 1\n"


def test_partitions_via_product_json(capsys):
    code, out, _ = run(capsys, "partitions", "--order", "6", "--via-product",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == payload["via_product"]
    assert payload["equal"] is True


# --- shared flag behaviour -----------------------------------------------------


def test_env_variable_sets_default_order(capsys, monkeypatch):
    monkeypatch.setenv("PRODEX_DEFAULT_ORDER", "5")
    code, out, _ = run(capsys, "ghost", "--ones")
    assert code == 0
    assert len(out.splitlines()) == 5


def test_bad_env_variable_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("PRODEX_DEFAULT_ORDER", "many")
    code, _, err = run(capsys, "ghost", "--ones")
    assert code == 1
    assert "PRODEX_DEFAULT_ORDER" in err


def test_default_order_is_64(capsys):
    code, out, _ = run(capsys, "invert", "--ones")
    assert code == 0
    assert len(out.splitlines()) == 64


def test_order_zero_is_usage_error(capsys):
    code, _, _ = run(capsys, "expand", "--coeffs", "1,-1", "--order", "0")
    assert code == 1


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_conflicting_inputs_are_usage_error(capsys):
    code, _, err = run(capsys, "invert", "--ones", "--exponents", "1,2")
    assert code == 1
    assert "only one" in err


# each flag lives only on the subcommands that read it
@pytest.mark.parametrize("argv", [
    *[[*command, "--threads", "2"] for command in (
        ["expand", "--coeffs", "1,-1"], ["series", "--ones"], ["invert", "--ones"],
        ["ghost", "--ones"], ["unghost", "--values", "1"], ["family", "--d", "1"],
        ["fermat", "--d", "1", "--p", "3"], ["check", "--a", "2", "--p", "3"],
        ["partitions"])],
    *[[*command, "--order", "5"] for command in (
        ["fermat", "--d", "1", "--p", "3"], ["check", "--a", "2", "--p", "3"],
        ["wieferich", "--from", "2", "--to", "100"])],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_flag_on_a_subcommand_that_ignores_it_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("prodex: error: unrecognized arguments: " + argv[-2])


def test_threads_validation(capsys):
    code, _, err = run(capsys, "wieferich", "--from", "2", "--to", "100",
                       "--threads", "zero")
    assert code == 1
    assert "--threads" in err and "'auto'" in err


# --- JSON round trips ----------------------------------------------------------


def test_expand_series_round_trip(tmp_path, capsys):
    code, expansion_json, _ = run(capsys, "expand", "--coeffs", "1,-1,-1",
                                  "--order", "6", "--format", "json")
    assert code == 0
    expansion_file = tmp_path / "expansion.json"
    expansion_file.write_text(expansion_json)

    code, series_json, _ = run(capsys, "series", "--input", str(expansion_file),
                               "--format", "json")
    assert code == 0
    assert json.loads(series_json) == {
        "order": 6,
        "coeffs": ["1", "-1", "-1", "0", "0", "0", "0"],
    }

    series_file = tmp_path / "series.json"
    series_file.write_text(series_json)
    code, back, _ = run(capsys, "expand", "--input", str(series_file),
                        "--format", "json")
    assert code == 0
    assert back == expansion_json


def test_ghost_unghost_round_trip(tmp_path, capsys):
    code, ghost_json, _ = run(capsys, "ghost", "--exponents", "1,1,2,3,6,8",
                              "--format", "json")
    assert code == 0
    ghost_file = tmp_path / "ghost.json"
    ghost_file.write_text(ghost_json)

    code, out, _ = run(capsys, "unghost", "--input", str(ghost_file),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["exponents"] == ["1", "1", "2", "3", "6", "8"]


def test_invert_round_trip_via_files(tmp_path, capsys):
    code, inverted, _ = run(capsys, "invert", "--ones", "--order", "8",
                            "--format", "json")
    assert code == 0
    path = tmp_path / "inverse.json"
    path.write_text(inverted)
    code, back, _ = run(capsys, "invert", "--input", str(path), "--format", "json")
    assert code == 0
    assert json.loads(back) == {
        "order": 8,
        "exponents": ["1", "1", "1", "1", "1", "1", "1", "1"],
    }


# --- installed entry point -----------------------------------------------------


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "prodex", "expand", "--coeffs", "1,-1",
         "--order", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 1\n2 0\n3 0\n4 0\n"


def test_cli_import_loads_no_process_pool():
    # only a multi-worker scan needs concurrent.futures; every start-up
    # would pay for importing it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, prodex.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0


# --- exact values of any size ----------------------------------------------------


def test_values_past_4300_digits_print(capsys):
    code, out, _ = run(capsys, "expand", "--coeffs=1,1" + "0" * 4400, "--order", "1")
    assert code == 0
    assert out == "1 -1" + "0" * 4400 + "\n"


def test_values_past_4300_digits_round_trip(tmp_path, capsys):
    coeffs = ["1", "1" + "0" * 4400]
    code, out, _ = run(capsys, "expand", "--coeffs=" + ",".join(coeffs),
                       "--format", "json")
    assert code == 0
    path = tmp_path / "expansion.json"
    path.write_text(out)
    code, back, _ = run(capsys, "series", "--input", str(path), "--format", "json")
    assert code == 0
    assert json.loads(back)["coeffs"] == coeffs


# --- strict integer input ----------------------------------------------------------


@pytest.mark.parametrize("content", [
    pytest.param(b'{"coeffs": ' + b"[" * 200_000, id="deep-nesting"),
    pytest.param(b'{"coeffs": ["1", "\xe9"]}', id="not-utf-8"),
])
def test_malformed_input_file_is_usage_error(tmp_path, capsys, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "expand", "--input", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"prodex: error: {path} is not valid JSON:")


def _bad(case_id, *argv, record=None, env=None):
    return pytest.param(list(argv), record, env, id=case_id)


@pytest.mark.parametrize("argv, record, env", [
    _bad("json-string-field", "expand", record={"coeffs": "123"}),
    _bad("json-float-order", "expand", record={"order": 2.9, "coeffs": ["1", "1", "1"]}),
    _bad("json-bool-order", "expand", record={"order": True, "coeffs": ["1", "1"]}),
    _bad("json-bool-value", "expand", record={"coeffs": ["1", True]}),
    _bad("json-float-value", "expand", record={"coeffs": ["1", 2.0]}),
    _bad("json-arabic-digits", "expand", record={"coeffs": ["1", "\u0661\u0662"]}),
    _bad("json-underscore", "expand", record={"coeffs": ["1", "1_0"]}),
    _bad("json-space", "expand", record={"coeffs": ["1", " 1"]}),
    _bad("json-plus", "expand", record={"coeffs": ["1", "+1"]}),
    _bad("json-lone-minus", "expand", record={"coeffs": ["1", "-"]}),
    _bad("inline-plus", "expand", "--coeffs", "1,+1"),
    _bad("inline-arabic-digit", "expand", "--coeffs", "1,\u0661"),
    _bad("inline-underscore", "expand", "--coeffs", "1,1_0"),
    _bad("order-underscore", "expand", "--coeffs", "1,-1", "--order", "1_0"),
    _bad("order-space", "expand", "--coeffs", "1,-1", "--order", " 3"),
    _bad("d-arabic-digit", "family", "--d", "\u0661", "--order", "3"),
    _bad("a-plus", "check", "--a", "+3", "--p", "7"),
    _bad("to-underscore", "wieferich", "--from", "2", "--to", "1_000"),
    _bad("threads-arabic-digit", "wieferich", "--from", "2", "--to", "100",
         "--threads", "\u0662"),
    _bad("env-underscore", "ghost", "--ones", env="1_0"),
    _bad("env-arabic-digit", "ghost", "--ones", env="\u0665"),
])
def test_non_decimal_input_is_usage_error(tmp_path, capsys, monkeypatch,
                                          argv, record, env):
    if record is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(record))
        argv = argv + ["--input", str(path)]
    if env is not None:
        monkeypatch.setenv("PRODEX_DEFAULT_ORDER", env)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("prodex: error:") and "Traceback" not in err


def test_cli_import_loads_no_dataclasses_or_inspect():
    # dataclasses imports inspect, which imports ast and dis; every
    # start-up would pay for building the records through it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, prodex.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# --- one parser per input ------------------------------------------------------------


@pytest.mark.parametrize("item", ["+1", "x", "", "\u0661"],
                         ids=["plus", "letter", "empty", "arabic-indic-digit"])
def test_inline_list_and_input_file_give_one_reason(tmp_path, capsys, item):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"coeffs": ["1", item, "2"]}))
    inline_prefix = "prodex: error: --coeffs: "
    file_prefix = f"prodex: error: {path}: "
    code, out, inline_err = run(capsys, "expand", "--coeffs", f"1,{item},2")
    assert (code, out) == (1, "")
    assert inline_err.startswith(inline_prefix)
    code, out, file_err = run(capsys, "expand", "--input", str(path))
    assert (code, out) == (1, "")
    assert file_err.startswith(file_prefix)
    assert inline_err[len(inline_prefix):] == file_err[len(file_prefix):]


@pytest.mark.parametrize("argv", [
    ["fermat", "--d", "1", "--p", "3"],
    ["check", "--a", "10", "--p", "7"],
    ["wieferich", "--from", "2", "--to", "100"],
    ["expand", "--coeffs", "1,-1"],
    ["family", "--d", "1", "--order", "3"],
    ["partitions", "--order", "3"],
], ids=lambda argv: argv[0])
def test_default_order_is_read_only_by_a_fallback(capsys, monkeypatch, argv):
    # none of these falls back to the default order, so a bad
    # PRODEX_DEFAULT_ORDER changes nothing
    monkeypatch.delenv("PRODEX_DEFAULT_ORDER", raising=False)
    code, expected, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setenv("PRODEX_DEFAULT_ORDER", "many")
    assert run(capsys, *argv) == (0, expected, "")


@pytest.mark.parametrize("argv, env", [
    (["ghost", "--ones", "--order", str(10**20)], None),
    (["expand", "--coeffs", "1", "--order", str(10**20)], None),
    (["partitions", "--order", str(10**20)], None),
    (["invert", "--ones"], str(10**20)),
], ids=["ghost", "expand", "partitions", "env-invert"])
def test_order_past_list_range_is_usage_error(capsys, monkeypatch, argv, env):
    monkeypatch.delenv("PRODEX_DEFAULT_ORDER", raising=False)
    if env is not None:
        monkeypatch.setenv("PRODEX_DEFAULT_ORDER", env)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("prodex: error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["ghost", "--ones"],
    ["partitions"],
    ["expand", "--coeffs", "1"],
    ["family", "--d", "1", "--expand"],
    ["family", "--d", "1"],
], ids=["ghost", "partitions", "expand", "family-expand", "family"])
def test_order_too_large_to_allocate_is_usage_error(capsys, argv):
    # 2^62 still indexes a list, but no machine holds one that long
    code, out, err = run(capsys, *argv, "--order", str(2**62))
    assert code == 1
    assert out == ""
    assert err.startswith("prodex: error:") and "memory" in err
    assert "Traceback" not in err
