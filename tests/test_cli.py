import hashlib
import json
import os
import subprocess
import sys

import pytest

import shiftedq

# the child process imports the same package as the tests, installed or not
_SRC = os.path.dirname(os.path.dirname(shiftedq.__file__))
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)}


def run(*argv):
    return subprocess.run(
        [sys.executable, "-m", "shiftedq", *argv],
        capture_output=True, text=True, env=_ENV,
    )


def test_truncate_documented_example():
    r = run("truncate", "--type", "B2", "--lambda", "0,1",
            "--zroots", "2:0", "--mu", "0,0")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert len(out["candidates"]) == 2


def test_classify_sl2_documented_example():
    r = run("classify-sl2", "--lambda", "2", "--zroots", "1:3,-1", "--mu", "0")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert len(out["modules"]) == 2


def test_factor_trivial_documented_example():
    mono = json.dumps({"exps": [], "const": [[0, 1, 0], [0, 1, 0]]})
    r = run("factor", "--type", "B2", "--basis", "lambda", "--monomial", mono)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["factorizable"] and out["exponents"] == []


def test_factor_rejection_exit_code():
    mono = json.dumps({"exps": [[1, 0, 1]], "const": [[0, 1, 0]]})
    r = run("factor", "--type", "A1", "--basis", "a", "--monomial", mono)
    assert r.returncode == 1
    assert not json.loads(r.stdout)["factorizable"]


def test_dominant():
    mono = json.dumps({"exps": [[1, -1, 1], [1, 1, -1]], "const": [[0, 1, 0]]})
    r = run("dominant", "--type", "A1", "--monomial", mono)
    assert r.returncode == 0 and json.loads(r.stdout)["dominant"]


def test_dominant_huge_exponents():
    # an exponent is never expanded into that many shifts
    r = run("dominant", "--type", "A1", "--monomial", '{"exps":[[1,0,1e300]]}')
    assert r.returncode == 0 and r.stdout == '{"dominant":true}\n'
    for e, want in ((10**9, "true"), (-10**9, "false")):
        mono = json.dumps({"exps": [[1, 0, e], [1, 2, -e]]})
        r = run("dominant", "--type", "A1", "--monomial", mono)
        assert r.returncode == 0 and r.stdout == '{"dominant":%s}\n' % want


def test_qchar_and_verify():
    r = run("qchar", "--type", "A1", "--family", "neg_prefund_sl2", "--depth", "3")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert len(out["terms"]) == 4 and not out["complete"]
    r = run("verify-relations", "--kind", "osc_verma_plus",
            "--gamma-exp", "2", "--cutoff", "5")
    assert r.returncode == 0 and json.loads(r.stdout)["ok"]


def test_conjecture_exit_and_determinism():
    args = ("conjecture", "--type", "B2", "--zroots", "2:0", "--depth", "2")
    r1, r2 = run(*args), run(*args)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout  # bit-for-bit reproducible


def test_conjecture_d4_node2(capsys):
    # the truncfd Z of D4 Y_{2,0}: every weight's candidates enumerate within
    # the step budget, and each dual term matches one of them
    code, out, err = run_main(capsys, "conjecture", "--type", "D4", "--zroots", "2:0")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["ok"] and report["chi_L_terms"] == 29
    cands = [c for w in report["weights"] for c in w["candidates"]]
    assert len(cands) == 430
    statuses = {s: sum(c["status"] == s for c in cands)
                for s in ("NecessaryOnly", "StrongCandidate", "ConfirmedByPaper")}
    assert statuses == {"NecessaryOnly": 427, "StrongCandidate": 1, "ConfirmedByPaper": 2}
    assert sum(not c["matched"] for c in cands) == 402


def test_truncfd_command():
    mono = json.dumps({"exps": [[1, -2, 1], [1, 2, -1]],
                       "const": [[0, 1, 0], [0, 1, 0]]})
    r = run("truncfd", "--type", "B2", "--psi", mono)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["certificate"]["holds"]
    assert out["truncation"]["lambda"] == [4, 0]


def test_fm_budget_error_is_a_refusal(capsys, monkeypatch):
    # an expansion that does not close within its depth is a rejection with
    # one error line, not a traceback
    from shiftedq import qchar
    from shiftedq.qchar import FMBudgetError

    def budget(cd, chains):
        raise FMBudgetError("expansion of {(2, 0): 1} did not close within depth 132")

    monkeypatch.setattr(qchar, "qc_kr_chains", budget)
    mono = json.dumps({"exps": [[1, -1, 1], [1, 3, -1]], "const": [[2, 1, 0]]})
    code, out, err = run_main(capsys, "qchar", "--type", "A1", "--family", "simple_sl2",
                              "--monomial", mono)
    assert (code, out) == (1, "")
    assert err == "error: expansion of {(2, 0): 1} did not close within depth 132\n"


def test_usage_error_exit_2():
    r = run("truncate", "--type", "B2")
    assert r.returncode == 2


def test_mathematical_rejection_exit_1():
    r = run("truncate", "--type", "B2", "--lambda", "0,1",
            "--zroots", "2:0", "--mu", "5,5")
    assert r.returncode == 1
    assert "error" in r.stderr


def test_text_mode():
    r = run("classify-sl2", "--lambda", "2", "--zroots", "1:3,-1",
            "--mu", "0", "--text")
    assert r.returncode == 0
    assert "2 candidate(s)" in r.stdout


def test_conjecture_signtwist_flags():
    # matching on exact constants and modulo sign-twist gave the same bytes
    # (test_matched_constants_identical), so neither flag exists any more
    base = ("conjecture", "--type", "A2", "--zroots", "1:3", "--depth", "2")
    for flag in ("--up-to-signtwist", "--exact-constants"):
        r = run(*base, flag)
        assert r.returncode == 2 and not r.stdout
        assert "unrecognized arguments: " + flag in r.stderr


def assert_usage_error(r):
    assert r.returncode == 2
    assert r.stderr.startswith("error:")


def test_malformed_json_is_usage_error():
    assert_usage_error(run("factor", "--type", "B2", "--basis", "a",
                           "--monomial", '{"exps":[[1,0,1]'))
    assert_usage_error(run("truncfd", "--type", "B2", "--psi", "not json"))


def test_wrong_length_coweight_is_usage_error():
    assert_usage_error(run("truncate", "--type", "B2", "--lambda", "0,1,0",
                           "--zroots", "2:0", "--mu", "0,0"))
    assert_usage_error(run("truncate", "--type", "B2", "--lambda", "0,1",
                           "--zroots", "2:0", "--mu", "0"))


def test_out_of_range_node_is_usage_error():
    for node in (0, 5):
        mono = json.dumps({"exps": [[node, 0, 1], [node, 2, -1]]})
        r = run("factor", "--type", "B2", "--basis", "a", "--monomial", mono)
        assert_usage_error(r)
        assert "out of range" in r.stderr
    assert_usage_error(run("truncate", "--type", "B2", "--lambda", "0,1",
                           "--zroots", "3:0", "--mu", "0,0"))
    assert_usage_error(run("qchar", "--type", "B2", "--family", "fm", "--head", "3:0"))


def test_malformed_integers_are_usage_errors():
    assert_usage_error(run("truncate", "--type", "B2", "--lambda", "0,1",
                           "--zroots", "x:0", "--mu", "0,0"))
    assert_usage_error(run("qchar", "--type", "B2", "--family", "fm", "--head", "2:a"))


def test_top_level_threads_rejected():
    r = run("--threads", "4", "truncate", "--type", "B2", "--lambda", "0,1",
            "--zroots", "2:0", "--mu", "0,0")
    assert r.returncode == 2


def test_subcommand_threads_rejected():
    for argv in (("truncate", "--type", "B2", "--lambda", "0,1",
                  "--zroots", "2:0", "--mu", "0,0"),
                 ("qchar", "--type", "A1", "--family", "neg_prefund_sl2")):
        r = run(*argv, "--threads", "2")
        assert r.returncode == 2
        assert "unrecognized arguments: --threads 2" in r.stderr


def test_parser_reused_across_calls(capsys):
    from shiftedq import cli

    truncate = ("truncate", "--type", "B2", "--lambda", "0,1",
                "--zroots", "2:0", "--mu", "0,0")
    factor = ("factor", "--type", "B2", "--basis", "lambda", "--text",
              "--monomial", json.dumps({"exps": [], "const": [[0, 1, 0], [0, 1, 0]]}))
    outs = []
    for argv in (truncate, factor, truncate):
        assert cli.main(list(argv)) == 0
        outs.append(capsys.readouterr().out)
    assert cli.build_parser() is cli.build_parser()
    # each in-process output is the one a fresh process prints
    assert outs[0] == outs[2] == run(*truncate).stdout
    assert outs[1] == run(*factor).stdout == "empty certificate\n"


def run_main(capsys, *argv):
    """In-process CLI call: (exit code, stdout, stderr)."""
    from shiftedq import cli

    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_main_usage_error(capsys, *argv):
    code, out, err = run_main(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    return err


def test_monomial_json_validated_at_boundary(capsys):
    exps = [[1, -1, 1], [1, 3, -1]]
    for bad in ({"exps": [[1, -1, 1.7], [1, 3, -1]]},
                {"exps": [[1, -0.5, 1]]},
                {"exps": [[1.5, 0, 1]]},
                {"exps": exps, "const": [[1, 0, 0]]},
                {"exps": exps, "const": [[0, 1, 1.5]]},
                {"exps": exps, "const": [[0.5, 1, 0]]}):
        assert_main_usage_error(capsys, "dominant", "--type", "A1",
                                "--monomial", json.dumps(bad))
    err = assert_main_usage_error(capsys, "dominant", "--type", "A1", "--monomial",
                                  json.dumps({"exps": exps, "const": [[1, 0, 0]]}))
    assert "denominator is zero" in err
    # integral floats are integers
    ok = run_main(capsys, "dominant", "--type", "A1", "--monomial", json.dumps(
        {"exps": [[1, -1, 1], [1, 3, -1], [1, 5, 1]], "const": [[0, 1, 0]]}))
    assert ok == run_main(capsys, "dominant", "--type", "A1", "--monomial", json.dumps(
        {"exps": [[1.0, -1, 1], [1, 3, -1.0], [1, 5, 1]], "const": [[0, 1.0, 0]]}))
    assert ok[0] == 0
    # JSON booleans are not integers, though bool is a subclass of int
    for argv in (("factor", "--type", "A1", "--basis", "a", "--monomial",
                  '{"exps":[[true,-1,true],[1,1,-1]]}'),
                 ("dominant", "--type", "A2", "--monomial",
                  '{"exps":[[1,0,1]],"const":[[false,true,0],[0,1,0]]}')):
        assert "is not an integer" in assert_main_usage_error(capsys, *argv)


def test_rank_option_removed():
    r = run("factor", "--type", "B", "--rank", "0", "--basis", "a",
            "--monomial", '{"exps":[]}')
    assert r.returncode == 2
    assert "unrecognized arguments: --rank 0" in r.stderr


def test_unknown_type_is_usage_error(capsys):
    mono = json.dumps({"exps": []})
    for argv in (("factor", "--type", "Q7", "--basis", "a", "--monomial", mono),
                 ("dominant", "--type", "B", "--monomial", mono),
                 ("dominant", "--type", "", "--monomial", mono),
                 ("qchar", "--type", "G3", "--family", "pos_prefund"),
                 ("truncate", "--type", "Q7", "--lambda", "0", "--zroots", "1:0",
                  "--mu", "0"),
                 ("verify-relations", "--kind", "psitilde", "--type", "Q7")):
        assert "--type" in assert_main_usage_error(capsys, *argv)


def test_out_of_range_cli_node_is_usage_error(capsys):
    for argv in (("verify-relations", "--kind", "psitilde", "--type", "A2", "--node", "5"),
                 ("verify-relations", "--kind", "psistar", "--type", "B2", "--node", "0"),
                 ("qchar", "--type", "A2", "--family", "pos_prefund", "--node", "5"),
                 ("qchar", "--type", "A2", "--family", "neg_prefund", "--node", "3")):
        assert "--node" in assert_main_usage_error(capsys, *argv)


# flag -> a value every kind or family that reads it accepts (cheap to run)
_VERIFY_VALUES = {"--type": "A2", "--node": "2", "--shift": "1", "--gamma-exp": "1",
                  "--beta-exp": "-1", "--cutoff": "3", "--window": "2"}
_VERIFY_READS = {
    "osc_verma_plus": ("--gamma-exp", "--cutoff"),
    "osc_verma_minus": ("--gamma-exp", "--cutoff"),
    "eval_sl2": ("--gamma-exp", "--shift", "--cutoff", "--window"),
    "psitilde": ("--type", "--node", "--shift", "--cutoff", "--window"),
    "psistar": ("--type", "--node", "--shift", "--window"),
    "coproduct_plus": ("--gamma-exp", "--beta-exp", "--cutoff"),
    "coproduct_minus": ("--gamma-exp", "--beta-exp", "--cutoff"),
}
_QCHAR_VALUES = {"--node": "2", "--shift": "1", "--depth": "3", "--head": "1:0",
                 "--monomial": '{"exps":[[1,-1,1],[1,3,-1]]}'}
_CLOSED = ("--node", "--shift", "--depth")
_QCHAR_READS = {
    "pos_prefund": _CLOSED, "neg_prefund_sl2": _CLOSED, "psitilde": _CLOSED,
    "psistar": _CLOSED, "neg_prefund": _CLOSED,
    "fm": ("--head", "--depth"),
    "simple_sl2": ("--monomial",),
}


def _flag_argv(values, flags):
    return [a for f in flags for a in (f, values[f])]


@pytest.mark.parametrize("kind", sorted(_VERIFY_READS))
def test_verify_relations_reads_only_its_flags(capsys, kind):
    reads = _VERIFY_READS[kind]
    base = ["verify-relations", "--kind", kind]
    code, out, err = run_main(capsys, *base, *_flag_argv(_VERIFY_VALUES, reads))
    assert (code, err) == (0, "") and json.loads(out)["ok"]
    for flag in _VERIFY_VALUES:
        if flag not in reads:
            err = assert_main_usage_error(capsys, *base, flag, _VERIFY_VALUES[flag])
            assert err == f"error: {flag} is not read by --kind {kind}\n"


@pytest.mark.parametrize("family", sorted(_QCHAR_READS))
def test_qchar_reads_only_its_flags(capsys, family):
    reads = _QCHAR_READS[family]
    base = ["qchar", "--type", "A1" if family.endswith("sl2") else "A2",
            "--family", family]
    values = dict(_QCHAR_VALUES, **({"--node": "1"} if family.endswith("sl2") else {}))
    code, out, err = run_main(capsys, *base, *_flag_argv(values, reads))
    assert (code, err) == (0, "") and json.loads(out)["terms"]
    for flag in values:
        if flag not in reads:
            err = assert_main_usage_error(capsys, *base, flag, values[flag])
            assert err == f"error: {flag} is not read by --family {family}\n"


@pytest.mark.parametrize("kind", sorted(_VERIFY_READS))
def test_verify_relations_cutoff_and_window_below_1_are_usage_errors(capsys, kind):
    for flag in ("--cutoff", "--window"):
        if flag in _VERIFY_READS[kind]:
            for value in ("0", "-3"):
                err = assert_main_usage_error(capsys, "verify-relations", "--kind",
                                              kind, flag, value)
                assert err == f"error: {flag} must be >= 1\n"


def test_ignored_flags_from_the_roadmap_exit_2(capsys):
    for argv in (("verify-relations", "--kind", "eval_sl2", "--type", "Q7"),
                 ("verify-relations", "--kind", "psitilde", "--gamma-exp", "5"),
                 ("qchar", "--type", "A2", "--family", "fm", "--node", "7")):
        assert "is not read by" in assert_main_usage_error(capsys, *argv)
    # omitted flags still take their old defaults
    code, out, _ = run_main(capsys, "verify-relations", "--kind", "psistar")
    assert code == 0
    assert out == run_main(capsys, "verify-relations", "--kind", "psistar", "--type", "A1",
                           "--node", "1", "--shift", "0", "--window", "4")[1]


def test_lambda_disagreeing_with_zroots_is_usage_error(capsys):
    for argv in (("truncate", "--type", "A2", "--lambda", "0,0", "--zroots", "1:0",
                  "--mu=1,0"),
                 ("classify-sl2", "--lambda", "1", "--zroots", "1:3,-1", "--mu", "0"),
                 ("conjecture", "--type", "A2", "--lambda", "0,0", "--zroots", "1:0")):
        err = assert_main_usage_error(capsys, *argv)
        assert "--lambda" in err and "--zroots counts" in err
    # agreeing counts are accepted
    assert run_main(capsys, "classify-sl2", "--lambda", "2", "--zroots", "1:3,-1",
                    "--mu", "0")[0] == 0


def test_truncation_shift_error_prints_rationals(capsys):
    code, out, err = run_main(capsys, "truncate", "--type", "A2", "--lambda", "1,0",
                              "--zroots", "1:0", "--mu=3,0")
    assert (code, out) == (1, "")
    assert err == ("error: lambda - mu is not an integral sum of simple coroots: "
                   "a = [-4/3, -2/3]\n")
    code, out, err = run_main(capsys, "truncate", "--type", "A1", "--lambda", "1",
                              "--zroots", "1:0", "--mu", "3")
    assert (code, out, err) == (1, "", "error: negative truncation shift a = [-1]\n")


def test_negative_depth_is_usage_error(capsys):
    for argv in (("qchar", "--type", "A1", "--family", "psitilde", "--depth", "-3"),
                 ("qchar", "--type", "B2", "--family", "fm", "--head", "2:0",
                  "--depth", "-1"),
                 ("truncate", "--type", "B2", "--lambda", "0,1", "--zroots", "2:0",
                  "--mu", "0,0", "--depth", "-2"),
                 ("conjecture", "--type", "A2", "--zroots", "1:3", "--depth", "-1")):
        assert assert_main_usage_error(capsys, *argv) == "error: --depth must be >= 0\n"
    # depth 0 stays valid
    for argv in (("qchar", "--type", "A1", "--family", "psitilde", "--depth", "0"),
                 ("truncate", "--type", "B2", "--lambda", "0,1", "--zroots", "2:0",
                  "--mu", "0,0", "--depth", "0"),
                 ("conjecture", "--type", "A2", "--zroots", "1:3", "--depth", "0")):
        assert run_main(capsys, *argv)[0] == 0


def test_rank_one_family_with_higher_rank_type_is_usage_error(capsys):
    for argv in (("qchar", "--type", "A2", "--family", "neg_prefund_sl2"),
                 ("qchar", "--type", "B2", "--family", "simple_sl2",
                  "--monomial", '{"exps":[]}')):
        err = assert_main_usage_error(capsys, *argv)
        assert "needs rank 1" in err and f"--type {argv[2]}" in err


# --- --text bytes ------------------------------------------------------------

_B2_FACTOR = ('{"exps":[[1,-6,1],[1,0,-1],[2,-4,-1],[2,-2,1],[2,0,1]],'
              '"const":[[0,1,0],[0,1,0]]}')

# name -> (argv, exit code, sha256 of stdout), recorded before the text lines
# were built lazily
_TEXT_PINS = {
    "qchar-fm-G2": (
        ("qchar", "--type", "G2", "--family", "fm", "--head", "1:0", "--depth", "40",
         "--text"),
        0, "55e78099d55cba0796c6971c948878cde4facae01f5da2b2cb31dd78bf56e740"),
    "qchar-neg_prefund-B2": (
        ("qchar", "--type", "B2", "--family", "neg_prefund", "--node", "1", "--text"),
        0, "1b302dea3f5c5f7ccd17fb6db4515e3a4a4cd09edd46b19e8d28590cfaf07a64"),
    "verify-psistar-B2": (
        ("verify-relations", "--kind", "psistar", "--type", "B2", "--text"),
        0, "4cdc961ec42276ea4c5c4cf7895527b8add84092610476b4943bd8072087b3c1"),
    "truncate-B2": (
        ("truncate", "--type", "B2", "--lambda", "1,1", "--zroots", "1:0;2:0",
         "--mu=-1,0", "--text"),
        0, "cf710564e311d949f639fd7552d7a1d9c9b5ced8d5b5efb72f44e20f061107de"),
    "conjecture-A2": (
        ("conjecture", "--type", "A2", "--zroots", "1:0;2:1", "--text"),
        0, "9c273cb3ce53fe78e89e233e4d8f7877713222e83a97eba3669419ebb2745d44"),
    "classify-sl2": (
        ("classify-sl2", "--lambda", "2", "--zroots", "1:3,-1", "--mu", "0", "--text"),
        0, "6d95e190901a1310b2d47dbca572e9893ef6977fb1ea580ca4bb4f492adc948b"),
    "factor-B2": (
        ("factor", "--type", "B2", "--basis", "lambda", "--monomial", _B2_FACTOR,
         "--text"),
        0, "fe37a435e492df0e4f071af4b9da00dd30060b101b601121f63325bb9d9dadd8"),
    "factor-A1-rejected": (
        ("factor", "--type", "A1", "--basis", "a", "--monomial",
         '{"exps":[[1,0,1]],"const":[[0,1,0]]}', "--text"),
        1, "2656d09b71491ad0ef227a4ec49c13924d30cb3855d96a61bc0b2bdb8057ad74"),
    "dominant-A1": (
        ("dominant", "--type", "A1", "--monomial",
         '{"exps":[[1,-1,1],[1,3,-1],[1,5,1]],"const":[[0,1,0]]}', "--text"),
        0, "92a8b471767e09c6766b559df9a013fd1f3c8cfa2e3edb0a6a238534635d995f"),
    "truncfd-B2": (
        ("truncfd", "--type", "B2", "--psi",
         '{"exps":[[1,-2,1],[1,2,-1]],"const":[[0,1,0],[0,1,0]]}', "--text"),
        0, "e006ba629d2bd75a1149db8f502afe5c276923ba1c09acf1c09c843b4142e9a8"),
}


def test_verify_text_reports_unchecked_instances(capsys):
    code, out, _ = run_main(capsys, "verify-relations", "--kind", "eval_sl2",
                            "--cutoff", "1", "--window", "2", "--text")
    assert code == 0
    assert out.splitlines()[:3] == ["eval_sl2: PASS", "  deux     x20    ok",
                                    "  hdd      x32    ok, 16 unchecked"]
    assert out.count("unchecked") == 1


@pytest.mark.parametrize("name", sorted(_TEXT_PINS))
def test_text_output_bytes_pinned(capsys, name):
    argv, rc, digest = _TEXT_PINS[name]
    code, out, err = run_main(capsys, *argv)
    assert (code, err) == (rc, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_text_lines_built_only_under_text(capsys, monkeypatch):
    from shiftedq import cli
    from shiftedq.lweight import LWeightMonomial

    def refuse(*_):
        raise AssertionError("text built for JSON output")

    monkeypatch.setattr(LWeightMonomial, "__repr__", refuse)
    monkeypatch.setattr(cli, "_candidate_lines", refuse)
    for argv in (("qchar", "--type", "B2", "--family", "fm", "--head", "2:0"),
                 ("truncate", "--type", "B2", "--lambda", "0,1", "--zroots", "2:0",
                  "--mu", "0,0"),
                 ("classify-sl2", "--lambda", "2", "--zroots", "1:3,-1", "--mu", "0")):
        code, out, err = run_main(capsys, *argv)
        assert (code, err) == (0, "")
        json.loads(out)


def test_json_payload_built_only_without_text(capsys, monkeypatch):
    from shiftedq.qchar import QCharacter
    from shiftedq.truncation import Candidate, TruncationData

    def refuse(*_):
        raise AssertionError("JSON payload built for --text output")

    for cls in (QCharacter, Candidate, TruncationData):
        monkeypatch.setattr(cls, "to_json", refuse)
    monkeypatch.setattr(QCharacter, "dumps", refuse)
    for argv in (("qchar", "--type", "B2", "--family", "fm", "--head", "2:0"),
                 ("truncate", "--type", "B2", "--lambda", "0,1", "--zroots", "2:0",
                  "--mu", "0,0"),
                 ("classify-sl2", "--lambda", "2", "--zroots", "1:3,-1", "--mu", "0"),
                 ("truncfd", "--type", "B2", "--psi",
                  '{"exps":[[1,-2,1],[1,2,-1]],"const":[[0,1,0],[0,1,0]]}')):
        code, out, err = run_main(capsys, *argv, "--text")
        assert (code, err) == (0, "")
        assert out and not out.startswith("{")


@pytest.mark.parametrize("head",["1:0;2:0", "1:0;1:0"])
def test_fm_heuristic_head_is_reported(capsys, head):
    # neither a KR nor a fundamental head: FM has no proof for it
    argv = ("qchar", "--type", "A2", "--family", "fm", "--head", head)
    code, out, _ = run_main(capsys, *argv)
    data = json.loads(out)
    assert code == 0 and data["complete"] and data["heuristic"] is True
    code, out, _ = run_main(capsys, *argv, "--text")
    assert code == 0 and out.splitlines()[0].endswith("complete=True, heuristic")


def test_fm_kr_head_is_not_heuristic(capsys):
    argv = ("qchar", "--type", "A2", "--family", "fm", "--head", "1:0;1:2")
    code, out, _ = run_main(capsys, *argv)
    assert code == 0 and "heuristic" not in json.loads(out)
    code, out, _ = run_main(capsys, *argv, "--text")
    assert code == 0 and out.splitlines()[0].endswith("complete=True")
