"""CLI: context loading, commands, JSON output, determinism, exit codes."""

import importlib.util
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from pinsep import report, towers
from pinsep.cli import ConfigError, build_parser, load_config, main
from pinsep.exprs import parse_element
from pinsep.subfields import InternalInconsistency, to_vector

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

# The golden reports and their arguments are listed once, in the script
# that regenerates them.
_spec = importlib.util.spec_from_file_location(
    "make_goldens", SRC.parent / "scripts" / "make_goldens.py")
make_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_goldens)

SAMPLE = """\
p: 2
variables: [X, Y, Z]
ambient_cap: 6
bindings:
  a1: "rt(X,2)"
  a2: "rt(X,2)*rt(Y,1)+rt(Z,1)"
fields:
  K: [a1, a2]
  L: ["rt(X,1)", "rt(Y,1)"]
families:
  diag:
    max_stage: 3
    template: ["rt(X,$n)", "rt(Y,$n)"]
"""


def run_cli(*argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(list(argv))
    finally:
        sys.stdin = old_stdin
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "ctx.yaml"
    path.write_text(SAMPLE)
    return str(path)


def test_load_config_sample():
    cfg = load_config(SAMPLE)
    assert cfg.ctx.p == 2
    assert set(cfg.fields) == {"K", "L"}
    assert cfg.families["diag"].stage(2).degree_log == 4


def test_config_family_with_explicit_schedule():
    text = SAMPLE + """\
  steps:
    max_stage: 2
    schedule:
      0: []
      1: ["rt(X,1)"]
      2: ["rt(X,2)", "a2"]
"""
    cfg = load_config(text)
    fam = cfg.families["steps"]
    assert fam.stage(1).degree_log == 1
    assert fam.stage(2).degree_log == 3   # k(X^(1/4), a2)
    with pytest.raises(Exception):
        fam.stage(3)                      # no stage 3 in the schedule


def test_schedule_family_tops_out_at_its_last_listed_stage(tmp_path):
    """A schedule family without max_stage ends at its largest listed
    stage, for `invariants NAME` and `family NAME invariants` alike."""
    path = tmp_path / "ctx.yaml"
    path.write_text("p: 2\nvariables: [X]\nfamilies:\n"
                    "  sch: {schedule: {0: [], 1: [\"rt(X,1)\"]}}\n")
    assert load_config(path.read_text()).families["sch"].max_stage == 1
    rc, out, err = run_cli("--context", str(path), "invariants", "sch")
    assert rc == 0, err
    assert "degree: p^1 = 2" in out
    rc, out, err = run_cli("--context", str(path), "family", "sch",
                           "invariants")
    assert rc == 0, err
    assert out.startswith("field sch:1 ")


def test_config_errors():
    with pytest.raises(Exception):
        load_config("p: 2\n")           # missing variables
    bad = "p: 2\nvariables: [X]\nbindings:\n  X: 'rt(X,1)'\n"
    with pytest.raises(Exception):
        load_config(bad)                # name collision
    with pytest.raises(Exception):
        load_config("p: 9\nvariables: [X]\n")

    malformed = [
        "p: 2\nvariables: 5\n",
        "p: 2\nvariables: XY\n",                   # not read as X, Y
        "p: 2\nvariables: [X]\nfields: [K]\n",
        "p: 2\nvariables: [X]\nbindings: 3\n",
        "p: [2]\nvariables: [X]\n",
        "p: 2\nvariables: [X]\nambient_cap: [6]\n",
    ]
    for text in malformed:
        with pytest.raises(ConfigError):
            load_config(text)


def test_malformed_config_is_parse_error(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("p: 2\nvariables: [X]\nfields: [K]\n")
    rc, out, err = run_cli("--context", str(path), "parity", "3")
    assert rc == 2 and out == ""
    assert err.startswith("error[parse]:") and "'fields'" in err
    for entry, key in [("schedule: 3", "'schedule'"),
                       ("template: 5", "'template'"),
                       ("max_stage: [3]", "'max_stage'"),
                       ("schedule: {1: 5}", "'schedule'")]:
        path.write_text(f"p: 2\nvariables: [X]\n"
                        f"families:\n  F: {{{entry}}}\n")
        rc, out, err = run_cli("--context", str(path), "invariants", "F")
        assert rc == 2 and out == "", (entry, err)
        assert err.startswith("error[parse]:") and key in err, (entry, err)


@pytest.mark.parametrize("doc,key", [
    ("p: 2\nvariables: [X]\nambient_cap: -1\n", "ambient cap must be >= 0"),
    ('p: 2\nvariables: [X, "X Y"]\n', "variable name 'X Y'"),
], ids=["negative_cap", "unreadable_name"])
def test_unusable_context_is_parse_error(tmp_path, doc, key):
    """A negative ambient cap, and a variable name that rendered elements
    could not be parsed back with, are refused as the context loads."""
    path = tmp_path / "bad.yaml"
    path.write_text(doc + "fields:\n  K: [X]\n")
    rc, out, err = run_cli("--context", str(path), "invariants", "K")
    assert rc == 2 and out == "", err
    assert err.startswith("error[parse]:") and key in err, err


def test_invariants_from_config(config_path):
    rc, out, err = run_cli("--context", config_path, "--json",
                           "invariants", "K")
    assert rc == 0, err
    rep = json.loads(out)
    assert rep["di"] == 2
    assert rep["exponents"] == [2, 1]
    assert rep["modular"]["verdict"] is False


def test_context_from_stdin():
    rc, out, _ = run_cli("--context", "-", "--json", "invariants", "L",
                         stdin=SAMPLE)
    assert rc == 0
    rep = json.loads(out)
    assert rep["degree_log"] == 2
    assert rep["equiexponential"]["verdict"] is True


def test_member_command(config_path):
    rc, out, _ = run_cli("--context", config_path, "member", "rt(X,1)", "K")
    assert rc == 0 and "True" in out
    rc, out, _ = run_cli("--context", config_path, "member", "rt(Y,1)", "K")
    assert rc == 0 and "False" in out


def test_truncate_command(config_path):
    rc, out, _ = run_cli("--context", config_path, "--json",
                         "truncate", "K", "--n", "1")
    rep = json.loads(out)
    assert rep["degree_log"] == 1


def test_intersect_and_compositum(config_path):
    rc, out, _ = run_cli("--context", config_path, "--json",
                         "intersect", "K", "L")
    assert json.loads(out)["degree_log"] == 1   # K ∩ L = k(X^(1/2))
    rc, out, _ = run_cli("--context", config_path, "--json",
                         "compositum", "K", "L")
    assert json.loads(out)["degree_log"] == 4


# Exact stdout of the commands whose reports are built outside the golden
# set, pinned byte for byte (text and --json) on the SAMPLE context.
PINNED = [
    pytest.param(["truncate", "K", "--n", "1"], """\
k_1 of K: degree p^1
  1
  rt(X,1)
""", """\
{
  "schema_version": 1,
  "kind": "truncate",
  "field": "K",
  "n": 1,
  "degree_log": 1,
  "generators": [
    "1",
    "rt(X,1)"
  ]
}
""", id="truncate"),
    pytest.param(["intersect", "K", "L"], """\
intersect(K, L): degree p^1; linearly disjoint over K ∩ L: True
""", """\
{
  "schema_version": 1,
  "kind": "intersect",
  "fields": [
    "K",
    "L"
  ],
  "degree_log": 1,
  "generators": [
    "1",
    "rt(X,1)"
  ],
  "linearly_disjoint": true
}
""", id="intersect"),
    pytest.param(["compositum", "K", "L"], """\
compositum(K, L): degree p^4; linearly disjoint over K ∩ L: True
""", """\
{
  "schema_version": 1,
  "kind": "compositum",
  "fields": [
    "K",
    "L"
  ],
  "degree_log": 4,
  "generators": [
    "rt(X,2)",
    "rt(X,2)*rt(Y,1)+rt(Z,1)",
    "rt(X,1)",
    "rt(Y,1)"
  ],
  "linearly_disjoint": true
}
""", id="compositum"),
    pytest.param(["member", "rt(X,1)", "K"], """\
rt(X,1) in K: True
""", """\
{
  "schema_version": 1,
  "kind": "member",
  "element": "rt(X,1)",
  "field": "K",
  "verdict": true
}
""", id="member_in"),
    pytest.param(["member", "rt(Y,1)", "K"], """\
rt(Y,1) in K: False
""", """\
{
  "schema_version": 1,
  "kind": "member",
  "element": "rt(Y,1)",
  "field": "K",
  "verdict": false
}
""", id="member_out"),
]

PINNED_CLAIMS_TEXT = """\
PASS exe4.truncation_identity: k_j = k(X^(1/p^j), theta_1, ..., theta_{j-1})
PASS exe4.rp_trend [surrogate]: k(K_m^p) contains X^(1/p^(m-1)) \
(surrogate: the relatively perfect closure is k(X^(1/p^oo)))
"""

PINNED_CLAIMS_JSON = """\
{
  "schema_version": 1,
  "kind": "claims",
  "family": {
    "name": "exe4",
    "p": 2,
    "variables": [
      "X",
      "Y1",
      "Z1",
      "Y2",
      "Z2"
    ],
    "params": {
      "n": 3,
      "p": 2
    },
    "max_stage": 3,
    "notes": "lq-finite but not absolutely lq-finite; the theta_i form an \
unbounded r-base over k(K^p)"
  },
  "claims": [
    {
      "id": "truncation_identity",
      "description": "k_j = k(X^(1/p^j), theta_1, ..., theta_{j-1})",
      "op": "subfields.truncation",
      "horizon": "j <= 3",
      "surrogate": false,
      "passed": true
    },
    {
      "id": "rp_trend",
      "description": "k(K_m^p) contains X^(1/p^(m-1)) (surrogate: the \
relatively perfect closure is k(X^(1/p^oo)))",
      "op": "subfields.frobenius_image",
      "horizon": "2 <= m <= 3",
      "surrogate": true,
      "passed": true
    }
  ]
}
"""


@pytest.mark.parametrize("argv,text,as_json", PINNED)
def test_pinned_stdout(config_path, argv, text, as_json):
    assert run_cli("--context", config_path, *argv) == (0, text, "")
    assert run_cli("--context", config_path, "--json", *argv) \
        == (0, as_json, "")


def test_pinned_claims_stdout():
    argv = ["family", "exe4", "claims", "--n", "3"]
    assert run_cli(*argv) == (0, PINNED_CLAIMS_TEXT, "")
    assert run_cli("--json", *argv) == (0, PINNED_CLAIMS_JSON, "")


# Text stdout of built-in commands whose reports no golden pins.
PINNED_BUILTIN_TEXT = [
    pytest.param(["modular", "exe4:3", "--method", "both"], """\
modular (both): False
  witness: Z1 not in K^(p^1)
""", id="modular_exe4_both"),
    pytest.param(["modular", "nonmodular_basic", "--method", "disjointness"],
                 """\
modular (disjointness): False
  witness: [k^(1/p^1)(K) : k^(1/p^1)] = p^1 but [K : k_1] = p^2
""", id="modular_nonmodular_disjointness"),
]


@pytest.mark.parametrize("argv,text", PINNED_BUILTIN_TEXT)
def test_pinned_builtin_text(argv, text):
    assert run_cli(*argv) == (0, text, "")


def test_oracle_rbase_prints_the_plain_report():
    plain = run_cli("rbase", "exe4:3")
    assert plain[0] == 0 and plain[1].startswith("canonical r-base of exe4:3:")
    assert run_cli("--oracle", "rbase", "exe4:3") == plain


def test_oracle_disagreement_exits_4(monkeypatch):
    def disagree(K):
        raise InternalInconsistency("exponent computations disagree")

    monkeypatch.setattr(report, "oracle_checks", disagree)
    assert run_cli("--oracle", "rbase", "exe4:3") == (
        4, "", "error[internal-inconsistency]: exponent computations "
               "disagree\n")


def test_failing_family_claim_exits_4(monkeypatch):
    """The report still lists every claim, the failed one as FAIL."""
    monkeypatch.setattr(towers, "_truncation_identity", lambda fam: False)
    rc, out, err = run_cli("family", "exe2", "claims", "--n", "2")
    assert rc == 4
    assert out.splitlines()[0].startswith("FAIL exe2.truncation_identity:")
    assert [line[:4] for line in out.splitlines()] == ["FAIL", "PASS", "PASS"]
    assert err == ("error[internal-inconsistency]: a documented family "
                   "claim failed\n")


CONFIG_FAMILY_UTABLE = """\
U-table for diag (horizon 2, s <= 2)
  s=1: [0, 0]
  s=2: [0, 0]
  rows still growing at horizon: []
  Ilqm lower bound: None
  e estimate at horizon: 0
  note: boundedness is horizon-limited: a flat row is only known bounded \
up to the horizon
"""

CONFIG_FAMILY_INVARIANTS = """\
field diag:3 over F_2(X, Y, Z)
  generators: rt(X,3), rt(Y,3)
  degree: p^6 = 64
  di: 2
  exponents: [3, 3]
  modular: True
  equiexponential: True (exponent 3)
  rp chain degree logs: [4, 2, 0, 0]
"""


def test_config_family_commands(config_path):
    """utable and family reach a family of the context document; it takes
    no parameters."""
    assert run_cli("--context", config_path, "utable", "diag", "--horizon",
                   "2", "--smax", "2") == (0, CONFIG_FAMILY_UTABLE, "")
    assert run_cli("--context", config_path, "family", "diag",
                   "invariants") == (0, CONFIG_FAMILY_INVARIANTS, "")
    for argv in (["family", "diag", "invariants", "--params", "t=1"],
                 ["utable", "diag", "--horizon", "2", "--smax", "1",
                  "--params", "n=1"]):
        assert run_cli("--context", config_path, *argv) == (
            2, "", "error[parse]: config families take no parameters\n")


AMBIGUOUS_COEFFICIENT = """\
p: 2
variables: [X, Y, Z]
fields:
  K: ["rt(X,2)", "rt(X,1)/(rt(Y,1)*rt(Z,1))"]
"""


def test_pinned_coefficient_parses_back(tmp_path):
    """A coefficient X/(Y*Z) keeps its brackets; X/Y*Z would read (X/Y)*Z."""
    path = tmp_path / "ctx.yaml"
    path.write_text(AMBIGUOUS_COEFFICIENT)
    assert run_cli("--context", str(path), "rbase", "K") == (0, """\
canonical r-base of K:
  exponent 2: rt(X,2)
  exponent 1: rt(X,1)/(rt(Y,1)*rt(Z,1))
  defining eq j=2 eps=[0]: X/(Y*Z)
  defining eq j=2 eps=[1]: 0
""", "")
    rc, out, _ = run_cli("--context", str(path), "--json", "rbase", "K")
    assert rc == 0
    eqs = json.loads(out)["defining_equations"]
    assert [eq["coefficient"] for eq in eqs] == ["X/(Y*Z)", "0"]


def test_family_stage_reference(config_path):
    rc, out, _ = run_cli("--context", config_path, "--json",
                         "invariants", "diag:2")
    assert json.loads(out)["degree_log"] == 4


@pytest.mark.parametrize("in_context,name,n", [
    (True, "diag", 2),
    (False, "modular_diag", 2),
    (False, "nonmodular_basic", 1),
    (False, "exe6", 1),
], ids=["config", "modular_diag", "nonmodular_basic", "exe6"])
def test_family_n_selects_the_stage(config_path, in_context, name, n):
    """--n selects stage n of a family without an n parameter, whether it
    is built in or comes from a context document: the report is that of
    invariants NAME:N, byte for byte.  A stage past max_stage is a parse
    error."""
    pre = ["--context", config_path] if in_context else []
    got = run_cli(*pre, "--json", "family", name, "invariants", "--n", str(n))
    assert got[0] == 0
    assert got == run_cli(*pre, "--json", "invariants", f"{name}:{n}")
    rc, out, err = run_cli(*pre, "family", name, "invariants", "--n", "9")
    assert (rc, out) == (2, "")
    assert err.startswith("error[parse]:") and "got 9" in err


def test_builtin_stage_resolves_under_context(config_path):
    """A field name that is no field of the context document resolves as
    a family stage, built-in families included; an unknown one is a parse
    error naming the built-in families."""
    got = run_cli("--context", config_path, "--json", "invariants", "exe1:2")
    assert got[0] == 0
    assert got == run_cli("--json", "invariants", "exe1:2")
    assert run_cli("--context", config_path, "intersect", "K", "exe1:2") == (
        2, "", "error[parse]: the two fields live in different contexts\n")
    for pre in ([], ["--context", config_path]):
        rc, out, err = run_cli(*pre, "invariants", "NOPE:2")
        assert (rc, out) == (2, "")
        assert err.startswith("error[parse]: unknown field 'NOPE:2'")
        assert "exe1, exe2, exe4, exe6, modular_diag, nonmodular_basic" in err


def test_builtin_field_without_context():
    rc, out, _ = run_cli("--json", "modular", "nonmodular_basic")
    rep = json.loads(out)
    assert rep["verdict"] is False
    assert "not in K^(p^" in rep["witness"]["reason"]


def test_builtin_stage_reference():
    rc, out, _ = run_cli("--json", "invariants", "exe1:2")
    assert json.loads(out)["degree_log"] == 3


def test_family_claims_command():
    rc, out, _ = run_cli("family", "exe4", "claims", "--n", "3")
    assert rc == 0
    assert "PASS" in out and "FAIL" not in out


def test_config_family_has_no_claims(config_path):
    """A family defined in the context document documents no claims: the
    report lists none, the text report is one empty line, and the run
    exits 0."""
    rc, out, err = run_cli("--context", config_path, "--json", "family",
                           "diag", "claims")
    assert (rc, err) == (0, "")
    assert json.loads(out)["claims"] == []
    assert run_cli("--context", config_path, "family", "diag",
                   "claims") == (0, "\n", "")


def test_family_invariants_command():
    rc, out, _ = run_cli("--json", "family", "modular_diag", "invariants",
                         "--params", "t=2,m=2")
    rep = json.loads(out)
    assert rep["modular"]["verdict"] is True


def test_family_invariants_with_embedded_utable():
    rc, out, _ = run_cli("--json", "family", "exe1", "invariants",
                         "--n", "3", "--horizon", "3")
    rep = json.loads(out)
    assert rep["utable"]["rows"][1] == [1, 1, 1]
    assert rep["utable"]["s_max"] == rep["di"]


def test_family_invariants_text_shows_embedded_utable():
    """The text report carries the U-table that --horizon asks for, as
    the utable command prints it."""
    rc, out, _ = run_cli("family", "exe1", "invariants", "--n", "3",
                         "--horizon", "3")
    assert rc == 0
    _, table, _ = run_cli("utable", "exe1", "--horizon", "3", "--smax", "3",
                          "--params", "n=3")
    assert out.startswith("field exe1:3 over ")
    assert out.endswith("\n" + table)
    assert "  s=2: [1, 1, 1]" in out


@pytest.mark.parametrize("argv,flag", [
    (["family", "exe4", "claims", "--horizon", "3"], "--horizon"),
    (["family", "exe4", "claims", "--smax", "2"], "--smax"),
    (["family", "exe1", "invariants", "--n", "2", "--smax", "2"], "--smax"),
], ids=["claims_horizon", "claims_smax", "invariants_smax_without_horizon"])
def test_family_rejects_flags_it_would_ignore(argv, flag):
    rc, out, err = run_cli(*argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error[parse]:") and flag in err


def test_utable_command():
    rc, out, _ = run_cli("--json", "utable", "exe1", "--horizon", "3",
                         "--smax", "3", "--params", "n=3")
    rep = json.loads(out)
    assert rep["rows"][0] == [0, 0, 0]
    assert rep["rows"][1] == [1, 1, 1]


def test_parity_command():
    rc, out, _ = run_cli("--json", "parity", "5")
    rep = json.loads(out)
    assert (rep["lpi"], rep["lps"]) == (3, 4)


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def is_text(out):
    return out.startswith("n = 5: lpi = 3, lps = 4\n")


def no_oracle(out):
    return "oracle" not in json.loads(out)


def method_both(out):
    return json.loads(out)["method"] == "both"


@pytest.mark.parametrize("first,second,check", [
    (["--json", "parity", "5"], ["parity", "5"], is_text),
    (["--json", "--oracle", "invariants", "exe4:3"],
     ["--json", "invariants", "exe4:3"], no_oracle),
    (["--json", "modular", "exe4:3", "--method", "criterion"],
     ["--json", "modular", "exe4:3"], method_both),
], ids=["json", "oracle", "method"])
def test_calls_on_the_shared_parser_are_independent(first, second, check):
    """main() reuses one parser per process.  A flag or option given to
    one call leaves the next call's namespace at the parser's defaults."""
    alone = run_cli(*second)
    rc, out, _ = run_cli(*first)
    assert rc == 0 and not check(out)
    after = run_cli(*second)
    assert after == alone
    assert after[0] == 0 and check(after[1])


def test_call_after_a_usage_error():
    """A call that argparse refuses (SystemExit(2)) leaves the shared
    parser usable."""
    alone = run_cli("parity", "5")
    with pytest.raises(SystemExit) as exc:
        run_cli("modular", "exe4:3", "--method", "nope")
    assert exc.value.code == 2
    assert run_cli("parity", "5") == alone
    assert is_text(alone[1])


def test_import_does_not_load_pyyaml():
    """Only --context reads YAML, so importing the CLI leaves PyYAML
    unloaded."""
    proc = run_module("-c", "import sys, pinsep.cli; "
                            "print('yaml' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


WITHOUT_PYYAML = ("import sys\n"
                  "sys.modules['yaml'] = None   # import yaml now fails\n"
                  "from pinsep.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")


def test_context_without_pyyaml_is_parse_error(config_path):
    """Without PyYAML, --context exits 2 with a parse error that names
    it, and commands without --context still run."""
    proc = run_module("-c", WITHOUT_PYYAML, "--context", config_path,
                      "invariants", "K")
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("error[parse]:")
    assert "PyYAML" in proc.stderr and "Traceback" not in proc.stderr
    proc = run_module("-c", WITHOUT_PYYAML, "parity", "5")
    assert proc.returncode == 0, proc.stderr
    assert is_text(proc.stdout)


def test_oracle_flag(config_path):
    rc, out, _ = run_cli("--context", config_path, "--json", "--oracle",
                         "invariants", "K")
    rep = json.loads(out)
    assert rep["oracle"]["exponents_by_di"] == [2, 1, 0]


def test_determinism_byte_for_byte(config_path):
    runs = [run_cli("--context", config_path, "--json", "invariants", "K")
            for _ in range(2)]
    assert runs[0] == runs[1]
    runs = [run_cli("--json", "utable", "exe1", "--horizon", "3",
                    "--smax", "2") for _ in range(2)]
    assert runs[0] == runs[1]


def test_exit_codes(config_path, tmp_path):
    rc, _, err = run_cli("--context", config_path, "invariants", "NOPE")
    assert rc == 2 and "error[parse]" in err
    rc, _, err = run_cli("--context", config_path, "member", "rt(X,99)", "K")
    assert rc == 3 and "error[cap]" in err
    bad = tmp_path / "bad.yaml"
    bad.write_text("p: 2\nvariables: [X]\nfields:\n  F: ['rt(W,1)']\n")
    rc, _, err = run_cli("--context", str(bad), "invariants", "F")
    assert rc == 2
    rc, _, err = run_cli("--context", str(tmp_path / "missing.yaml"),
                         "parity", "3")
    assert rc == 2


@pytest.mark.parametrize("argv,needle", [
    (["family", "nonmodular_basic", "invariants", "--params", "n=1"],
     "family 'nonmodular_basic'"),
    (["utable", "exe1", "--horizon", "2", "--smax", "1", "--params", "q=1"],
     "family 'exe1'"),
    (["utable", "exe1", "--horizon", "0", "--smax", "1"], "horizon=0"),
    (["family", "exe1", "invariants", "--params", "n=x"], "parameter 'n'"),
    (["invariants", "exe1:"], "the stage of field 'exe1:'"),
    (["invariants", "exe1:abc"], "the stage of field 'exe1:abc'"),
    (["family", "exe1", "invariants", "--n", "2", "--params", "n=3"],
     "--n 2 and --params n=3"),
    (["truncate", "exe1:3", "--n", "-1"],
     "truncation level must be nonnegative"),
], ids=["unknown_n", "unknown_param", "zero_horizon", "param_not_integer",
        "empty_stage", "stage_not_integer", "two_different_n",
        "negative_truncation_level"])
def test_bad_family_parameters_are_parse_errors(argv, needle):
    rc, out, err = run_cli(*argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error[parse]:") and needle in err


def test_equal_n_and_params_n_are_accepted():
    """--n and --params n= may both be given when they agree."""
    alone = run_cli("family", "exe1", "invariants", "--n", "2")
    both = run_cli("family", "exe1", "invariants", "--n", "2",
                   "--params", "n=2")
    assert alone == both and alone[0] == 0
    assert "field exe1:2 " in alone[1]


@pytest.mark.parametrize("doc,argv,needle", [
    ("p: [2\n", [], "invalid YAML"),
    ("- p\n- 2\n", [], "configuration must be a mapping"),
    ("p: 2\nvariables: [X, rt]\n", [], "variable name 'rt'"),
    ("p: 2\nvariables: [X]\nfields:\n  X: [X]\n", [],
     "duplicate or reserved name 'X'"),
    ("p: 2\nvariables: [X]\nfields:\n  K: X\n", [], "field 'K'"),
    ("p: 2\nvariables: [X]\nfamilies:\n  exe1: {template: [X]}\n", [],
     "built-in family name 'exe1'"),
    ("p: 2\nvariables: [X]\nfamilies:\n  F: 3\n", [],
     "family 'F' must be a mapping"),
    ("p: 2\nvariables: [X]\nfamilies:\n  F: {max_stage: 2}\n", [],
     "family 'F' needs a schedule or a template"),
    ("p: 2\nvariables: [X]\nfamilies:\n  F: {schedule: {0: [], one: []}}\n",
     [], "'schedule' stage must be an integer, got 'one'"),
    (None, ["utable", "exe1", "--horizon", "2", "--smax", "1",
            "--params", "n=2,m"], "bad parameter 'm'"),
], ids=["invalid_yaml", "not_a_mapping", "reserved_variable",
        "duplicate_field", "field_not_list", "builtin_family_name",
        "family_not_mapping", "family_without_stages", "schedule_stage_name",
        "param_without_eq"])
def test_context_and_parameter_refusals(tmp_path, doc, argv, needle):
    """Each refusal of load_config and parse_params is a parse error that
    names what it refused, and prints nothing on stdout."""
    if doc is not None:
        path = tmp_path / "ctx.yaml"
        path.write_text(doc)
        argv = ["--context", str(path), "parity", "3"]
    rc, out, err = run_cli(*argv)
    assert (rc, out) == (2, ""), err
    assert err.startswith("error[parse]:") and needle in err, err


def test_exe3_reference_is_explicit_error():
    rc, _, err = run_cli("family", "exe3", "claims")
    assert rc == 2
    assert "catalogued" in err


def test_console_entry_point():
    proc = run_module("-m", "pinsep.cli", "parity", "7")
    assert proc.returncode == 0
    assert "lpi = 3" in proc.stdout


def run_module(*argv, timeout=120, **env):
    """Run `python -m pinsep.cli` in a fresh interpreter with extra env."""
    full_env = dict(os.environ, **env)
    full_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=full_env, timeout=timeout)


def nested(depth, inner, open_, close):
    return open_ * depth + inner + close * depth


# (name, context document or None, argv, exit code, error kind or None)
MALFORMED = [
    ("constant-root", None, ["member", "rt(1,99999999)", "nonmodular_basic"],
     0, None),
    ("level-cap", None, ["member", "rt(X,99999999)", "nonmodular_basic"],
     3, "cap"),
    ("deep-argument", None,
     ["member", nested(2000, "X", "(", ")"), "nonmodular_basic"], 2, "parse"),
    ("deep-field", "p: 2\nvariables: [X]\nfields:\n  K: [\""
     + nested(1500, "X", "(", ")") + "\"]\n", ["invariants", "K"], 2, "parse"),
    ("deep-yaml-list", "p: 2\nvariables: [X]\nfields:\n  K: "
     + nested(3000, "", "[", "]") + "\n", ["invariants", "K"], 2, "parse"),
    ("huge-power", None, ["member", "(X+Y)^1073741823", "nonmodular_basic"],
     3, "cap"),
    ("huge-product", None,
     ["member", "(X+Y)^1023*(X+Z)^1023", "nonmodular_basic"], 3, "cap"),
    ("huge-sum", None,
     ["member", "1/(X+Y)^511+1/(X+Z)^511", "nonmodular_basic"], 3, "cap"),
    ("long-literal", None, ["member", "X^" + "9" * 5000, "nonmodular_basic"],
     2, "parse"),
]


@pytest.mark.parametrize("doc,argv,code,kind",
                         [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_input_fails_fast(tmp_path, doc, argv, code, kind):
    """Each input ends within 30 s with its documented exit code, never 1
    (an uncaught exception); an error prints one error[kind] line and
    nothing else, in pinsep's own words rather than the interpreter's."""
    if doc is not None:
        path = tmp_path / "ctx.yaml"
        path.write_text(doc)
        argv = ["--context", str(path), *argv]
    proc = run_module("-m", "pinsep.cli", *argv, timeout=30)
    assert proc.returncode == code != 1
    if kind is None:
        assert proc.stderr == ""
    else:
        line, = proc.stderr.splitlines()
        assert line.startswith(f"error[{kind}]: ")
        assert "set_int_max_str_digits" not in line


@pytest.mark.parametrize("seed", ["0", "7", "999"])
@pytest.mark.parametrize("name,args", [
    ("invariants_exe1_3.json", ["--json", "invariants", "exe1:3"]),
    ("utable_modular_diag_h3.json",
     ["--json", "utable", "modular_diag", "--horizon", "3", "--smax", "2"]),
])
def test_golden_independent_of_hash_seed(name, args, seed):
    proc = run_module("-m", "pinsep.cli", *args, PYTHONHASHSEED=seed)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / name).read_text()


# exe2:3 and one element for each way member decides: a key outside the
# support of the field's span, elimination, and a member
MEMBER_ROUTES = (("support", "rt(Z3,3)"), ("eliminated", "rt(Z1,2)+rt(Z2,2)"),
                 ("member", "rt(X,3)*rt(Z1,2)+rt(Z2,2)"))


@pytest.mark.parametrize("route,text", MEMBER_ROUTES,
                         ids=[r for r, _ in MEMBER_ROUTES])
def test_member_output_independent_of_hash_seed(route, text):
    """The element takes the route it is named for, and pinsep member
    prints the same report for it under three hash seeds."""
    K = towers.family("exe2").stage(3)
    e = parse_element(K.ctx, text)
    assert 0 < e.level <= K.level
    off_support = to_vector(e, K.level, K._echelon.support) is None
    assert (off_support, K.member(e)) == {
        "support": (True, False), "eliminated": (False, False),
        "member": (False, True)}[route]
    outs = set()
    for seed in ("0", "7", "999"):
        proc = run_module("-m", "pinsep.cli", "--json", "member", text,
                          "exe2:3", PYTHONHASHSEED=seed)
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    out, = outs
    assert json.loads(out)["verdict"] == (route == "member")


def test_context_file_is_closed(config_path):
    proc = run_module("-X", "dev", "-m", "pinsep.cli", "--context",
                      config_path, "member", "rt(X,1)", "K")
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr


def test_family_survey_script():
    """The script runs from a plain checkout, on the checkout's sources."""
    script = Path(__file__).parent.parent / "scripts" / "run_families.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" not in proc.stdout
    assert "all documented claims hold" in proc.stdout


def test_family_survey_script_json():
    """With --json, stdout is JSON reports and nothing else: the claims
    come as claims reports, the closing summary goes to stderr."""
    script = Path(__file__).parent.parent / "scripts" / "run_families.py"
    proc = subprocess.run([sys.executable, str(script), "--json"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "all documented claims hold" in proc.stderr
    decoder = json.JSONDecoder()
    docs, pos, out = [], 0, proc.stdout
    while out[pos:].strip():
        while out[pos].isspace():
            pos += 1
        doc, pos = decoder.raw_decode(out, pos)
        docs.append(doc)
    kinds = [d["kind"] for d in docs]
    assert kinds.count("invariants") == kinds.count("claims") == 6
    assert kinds.count("utable") == 4
    assert all(c["passed"] for d in docs if d["kind"] == "claims"
               for c in d["claims"])


def test_make_goldens_help_writes_nothing():
    """--help prints usage and leaves every golden file untouched."""
    def snapshot():
        return {f.name: (f.read_bytes(), f.stat().st_mtime_ns)
                for f in sorted(GOLDEN.iterdir())}

    before = snapshot()
    proc = subprocess.run(
        [sys.executable, str(SRC.parent / "scripts" / "make_goldens.py"),
         "--help"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
    assert "wrote" not in proc.stdout
    assert snapshot() == before


@pytest.mark.parametrize("name,args", list(make_goldens.REPORTS.items()))
def test_golden_reports(name, args):
    """Built-in reports are byte-stable against the checked-in files."""
    rc, out, err = run_cli(*args)
    assert rc == 0, err
    expected = (GOLDEN / name).read_text()
    assert out == expected


@pytest.mark.parametrize("name,args", [
    (name, args) for name, args in make_goldens.REPORTS.items()
    if "invariants" in args])
def test_golden_reports_under_oracle(name, args):
    """--oracle adds its agreeing checks and leaves the rest of an
    invariant report byte-identical to its golden file."""
    rc, out, err = run_cli("--oracle", *args)
    assert rc == 0, err
    rep = json.loads(out)
    oracle = rep.pop("oracle")
    assert report.to_json(rep) + "\n" == (GOLDEN / name).read_text()
    assert oracle == {"exponents_by_di": rep["exponents"] + [0],
                      "di_decomposition": True,
                      "modularity_methods_agree": True}
