import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import galilei
from galilei import beta as beta_mod
from galilei.cli import main, parse_field_expr, FieldExprError
from galilei.poly import PolyRing
from galilei.reps import TABLE1


def run_cli(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


XRING = PolyRing(("x1", "x2", "x3"))

# stdout sha256 of every command the benchmark's verbs workload checks
VERBS_REF = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "ref", "verbs.json")


def test_parse_field_expr():
    p = parse_field_expr("1/2*x1^2 + x2", XRING)
    assert p.total_degree() == 2
    with pytest.raises(FieldExprError):
        parse_field_expr("x1*x2*x3", XRING)  # degree cap 2
    with pytest.raises(FieldExprError):
        parse_field_expr("3/0", XRING)
    with pytest.raises(FieldExprError):
        parse_field_expr("x4", XRING)
    q = parse_field_expr("(x1 + x2)^2 - x1^2", XRING)
    assert q == XRING.sym("x2") ** 2 + XRING.sym("x1") * XRING.sym("x2") * 2


def test_verify_rep(capsys):
    rc, out, _ = run_cli(["verify-rep", "--rep", "D(3,1,1)"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["schema"] == "galilei/1"


def test_solve_beta_trivial_pair(capsys):
    rc, out, _ = run_cli(["solve-beta", "--left", "D(1,0,0)", "--right", "D(0,1,0)"],
                         capsys)
    assert rc == 0
    assert json.loads(out)["dim"] == 0


# sha256 of the concatenated solve-beta JSON of all 100 ordered Table-1 pairs,
# recorded at commit 9d785d9 (before solve_beta4_space ran on linear_kernel)
SOLVE_BETA_TABLE1_SHA256 = "8d79660f610410c85210bef77324bc3e21d8d1a008ee5b2f3f74dc2783333095"


def test_solve_beta_table1_golden(capsys):
    labels = [f"D({n},{m},{l})" for (n, m, l) in sorted(TABLE1)]
    digest = hashlib.sha256()
    for left in labels:
        for right in labels:
            rc, out, _ = run_cli(["solve-beta", "--left", left, "--right", right], capsys)
            assert rc == 0
            digest.update(out.encode())
    assert digest.hexdigest() == SOLVE_BETA_TABLE1_SHA256


def test_spin_verbs(capsys):
    rc, out, _ = run_cli(["spin", "--system", "D221"], capsys)
    assert rc == 0
    payload = json.loads(out)
    spins = {(b["s"], b["mult"]) for b in payload["branches"]}
    assert spins == {("1", 3), ("0", 1)}
    assert payload["two_route_equal"]


def test_covariance_verb(capsys):
    rc, out, _ = run_cli(["covariance", "--system", "levy_leblond"], capsys)
    assert rc == 0
    assert json.loads(out)["ok"]


def test_reduce_minimal(capsys):
    rc, out, _ = run_cli(
        ["reduce", "--system", "levy_leblond", "--coupling", "minimal",
         "--A=-1/2*x2;1/2*x1;0"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["g"] == "2"
    assert payload["residual_zero"]


def test_reduce_anomalous(capsys):
    rc, out, _ = run_cli(
        ["reduce", "--system", "levy_leblond", "--coupling", "anomalous",
         "--lambda1", "1/2", "--lambda2", "1/3",
         "--A=-1/2*x2;1/2*x1;0", "--A0=-x1"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["g"] == "17/6"  # 2 + 1*(1/2) + 1*(1/3)


# sha256 of `galilei reduce` stdout, recorded (PYTHONHASHSEED=0) before the
# two coupling reductions shared one split
_FIELDS = ["--A=-1/2*x2;1/2*x1;0"]
_LAMBDAS = ["--coupling", "anomalous", "--lambda1", "1/2", "--lambda2", "1/3"]
REDUCE_GOLDEN = [
    (["--system", "levy_leblond", *_LAMBDAS, *_FIELDS, "--A0=-x1"],
     "ccf03c793d9ce7659a1bba1e8d75dc02902c64da372be64c2d6203bb950d747a"),
    (["--system", "D311", *_LAMBDAS, *_FIELDS, "--A0=-1/2*x1^2"],
     "7beb55df1988b1ed1689e040d7aa92b918ad020ffbaaffd96e87dff6eed8af4c"),
    (["--system", "D311", "--coupling", "minimal", *_FIELDS, "--A0=-1/2*x1^2"],
     "6f7874b7d2c3556fd61ab2486d327bd351e503f393b7491ff3d282b0606182bb"),
    (["--system", "D311", *_LAMBDAS, *_FIELDS, "--A0=-1/2*x1^2", "--truncate", "e:1,nu:-2"],
     "7beb55df1988b1ed1689e040d7aa92b918ad020ffbaaffd96e87dff6eed8af4c"),
]


@pytest.mark.parametrize("argv, digest", REDUCE_GOLDEN)
def test_reduce_golden(capsys, argv, digest):
    rc, out, _ = run_cli(["reduce", *argv], capsys)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `galilei spin` stdout for the six catalog systems, recorded
# (PYTHONHASHSEED=0) before the dispersion identity replaced the direct route
SPIN_GOLDEN = {
    "D110": "61ad6719fc049265f45a24bf2212afa7ef217a1577a8843a5a14ea3a9fc90448",
    "D210": "e6f8bd1787ce7d465fc8270cce6b00867d32a7fb851c3bbae67f37bf105ae684",
    "D221": "17a98b7c38056828a5595e0fc5ba4224f314e5ef70b9bcd09af7e580fb08ec72",
    "D311": "5bd1f9a41d13d0f9ba852b374b62afc979e2af8103c01d4f5d0f6b0eb76284c1",
    "levy_leblond": "7f5562274848bf0da223fe1101fbf1f1d1230e7b6cd3ad16b1d47a7ae7c1e738",
    "dkp_spin0": "5b0942be6b231094ac6dbbdbf8d067d90a31a615963efd2a4d2e8ea85e50086b",
}


@pytest.mark.parametrize("system", sorted(SPIN_GOLDEN))
def test_spin_golden(capsys, system):
    rc, out, _ = run_cli(["spin", "--system", system], capsys)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SPIN_GOLDEN[system]


# sha256 of the two dkp_spin0 outputs no other digest covers, with their exit
# codes, recorded before dkp_spin0 became a BetaSystem; covariance exits 1
# because T^H L T = L fails on a system outside the hermitizable class
DKP_SPIN0_GOLDEN = [
    (["catalog", "--name", "dkp_spin0"], 0,
     "249a6dae4fc1dcafe51bae6dec09f7b6e25bb245da8d64edaf4c3d24ae263470"),
    (["covariance", "--system", "dkp_spin0"], 1,
     "20edf7de39990871356fefdd1ca5df11479dac71706cbae405c495cf266adc6b"),
]


@pytest.mark.parametrize("argv, code, digest", DKP_SPIN0_GOLDEN)
def test_dkp_spin0_golden(capsys, argv, code, digest):
    rc, out, _ = run_cli(argv, capsys)
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_usage_error(capsys):
    rc, out, err = run_cli(
        ["reduce", "--system", "levy_leblond", "--A0", "x1*x2*x3"], capsys)
    assert rc == 2
    assert "degree cap" in err


def test_unknown_verb_usage(capsys):
    rc, _, _ = run_cli(["frobnicate"], capsys)
    assert rc == 2


@pytest.mark.parametrize("argv, message", [
    (["solve-beta", "--left", "D(9,9,9)", "--right", "D(1,1,0)"], "unknown representation label"),
    (["solve-beta", "--left", "S1", "--right", "D(1,1,0)"], "vector/scalar labels only"),
    (["verify-rep", "--rep", "D(1,1"], "bad representation label"),
    (["reduce", "--system", "levy_leblond", "--coupling", "anomalous", "--lambda1", "1/0"],
     "bad rational"),
    (["reduce", "--system", "levy_leblond", "--truncate", "e:x"], "bad truncation cap"),
    (["catalog", "--name", "levy_leblond", "--params", "kappa"], "bad rational"),
    (["catalog", "--name", "nonesuch"], "unknown canonical system"),
    (["classify", "--pairs", "1;x"], "bad --pairs"),
    (["spin", "--system", "nonesuch"], "unknown system"),
    (["catalog", "--name", "levy_leblond", "--params", "foo=1"], "does not take foo"),
    (["catalog", "--name", "proca", "--params", "x=1"], "does not take x"),
    (["catalog", "--name", "D311", "--params", "ring=2"], "does not take ring"),
    (["classify", "--pairs=-1,2"], "is not two sizes"),
    (["classify", "--pairs=1"], "is not two sizes"),
    (["classify", "--pairs=1,2,3"], "is not two sizes"),
    (["classify", "--pairs=0,-1"], "is not two sizes"),
    (["classify", "--pairs=1,1;4,2"], "needs 172186884 cells"),
    (["reduce", "--system", "levy_leblond", "--A0=x1", "--truncate", "zz:1"],
     "truncation symbol 'zz'"),
    (["reduce", "--system", "levy_leblond", "--A0=x1", "--truncate", ":1"],
     "truncation symbol ''"),
    (["reduce", "--system", "D311", "--coupling", "anomalous", "--mu-coupling", "5"],
     "--mu-coupling does not apply"),
    (["reduce", "--system", "D311", "--coupling", "anomalous", "--nu-coupling", "7"],
     "--nu-coupling does not apply"),
    (["reduce", "--system", "levy_leblond", "--lambda1", "1/2"], "--lambda1 does not apply"),
    (["reduce", "--system", "D311", "--coupling", "minimal", "--lambda2", "1/3"],
     "--lambda2 does not apply"),
    (["reduce", "--system", "levy_leblond", "--mu-coupling", "2"],
     "--mu-coupling does not apply"),
    (["spin", "--system", "gamma_hat"], "unknown system"),
    (["covariance", "--system", "proca"], "unknown system"),
    (["classify", "--pairs=1,1;0,12"], "needs 1961990553600 signed permutation pairs"),
    (["catalog", "--name", "D311", "--params", "nu=0"], "needs nu != 0"),
    (["reduce", "--system", "D311", "--coupling", "minimal", *_FIELDS, "--A0=-1/2*x1^2",
      "--truncate", "nu:0"], "truncation nu:0 removes the p0 term"),
    (["covariance", "--system", "D110", "--trials", "-3"], "--trials must be >= 0"),
    (["catalog", "--name", "D311", "--params", "nu=2", "nu=5"], "gives nu more than once"),
    (["reduce", "--system", "levy_leblond", "--A0=x1", "--truncate", "e:1,e:2"],
     "truncation symbol 'e' is given more than once"),
])
def test_usage_errors_exit_2(capsys, argv, message):
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("exc", [ValueError("no constant pivots"), ZeroDivisionError("x")])
def test_library_errors_exit_3(capsys, monkeypatch, exc):
    def broken(left, right):
        raise exc

    monkeypatch.setattr(beta_mod, "solve_beta4_space", broken)
    rc, out, err = run_cli(["solve-beta", "--left", "D(1,1,0)", "--right", "D(1,1,0)"], capsys)
    assert rc == 3
    assert out == ""
    assert err.startswith(f"internal fault ({type(exc).__name__}):")


def test_proca_and_contraction(capsys):
    rc, out, _ = run_cli(["proca"], capsys)
    assert rc == 0
    rc, out, _ = run_cli(["contract-dkp"], capsys)
    assert rc == 0


def test_deterministic_output(capsys):
    rc1, out1, _ = run_cli(["spin", "--system", "levy_leblond"], capsys)
    rc2, out2, _ = run_cli(["spin", "--system", "levy_leblond"], capsys)
    assert (rc1, out1) == (rc2, out2)


def test_catalog_matrix_json(capsys):
    rc, out, _ = run_cli(["catalog", "--name", "gamma_hat"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert len(payload["matrices"]) == 5
    first = payload["matrices"][0]
    assert first["rows"] == 4 and first["cols"] == 4
    assert first["entries"][2][0] == "1"


def test_catalog_params_reach_the_builder(capsys):
    rc, out, _ = run_cli(["catalog", "--name", "levy_leblond", "--params", "kappa=3", "omega=5"],
                         capsys)
    assert rc == 0
    beta4 = json.loads(out)["beta4"]["entries"]
    assert (beta4[0][0], beta4[0][2], beta4[2][0]) == ("3", "-5*i", "5*i")
    rc, out, _ = run_cli(["catalog", "--name", "D311", "--params", "nu=2"], capsys)
    assert rc == 0
    beta4 = json.loads(out)["beta4"]["entries"]
    assert (beta4[0][6], beta4[9][9]) == ("2", "-2")


# sha256 of `galilei classify` stdout, fixed before the search was pruned
CLASSIFY_GOLDEN = {
    (): "866bbc9ac0e6888000e712870f4e6573cf929dc1bc0114e3fad42d4b5263dd08",
    ("--pairs", "2,2;1,1"): "5e66836de118c50bb648c2ba4b52b2e82e244705b826ecf44f49e97252321f9b",
    ("--pairs", "3,1"): "3353f3555cf755c2102b1d7e611dfd2ad36ee0be87f8956740c02439e1164148",
}


@pytest.mark.parametrize("extra", sorted(CLASSIFY_GOLDEN))
def test_classify_golden(capsys, extra):
    rc, out, _ = run_cli(["classify", *extra], capsys)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_GOLDEN[extra]


# -- import graph: each verb loads only the library modules it runs ----------------

# runs cli.main(argv) (nothing for an empty argv), then prints the loaded
# galilei modules as the last line of stderr
_IMPORT_CHILD = """
import sys
from galilei import cli
rc = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
sys.stdout.flush()
print(" ".join(sorted(n for n in sys.modules if n.partition(".")[0] == "galilei")),
      file=sys.stderr)
sys.exit(rc)
"""


def _loaded_by(argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(galilei.__file__)))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, set(proc.stderr.splitlines()[-1].split())


@pytest.mark.parametrize("argv", [[], ["--help"]])
def test_cli_import_loads_only_scalars(argv):
    rc, _, loaded = _loaded_by(argv)
    assert rc == 0
    assert loaded == {"galilei", "galilei.cli", "galilei.scalars"}


@pytest.mark.parametrize("argv, not_loaded", [
    (["verify-rep", "--rep", "D(1,1,0)+D(0,1,0)"],
     ("beta", "catalog", "appendix", "spin", "covariance", "interaction", "weyl")),
    (["solve-beta", "--left", "D(1,1,0)", "--right", "D(1,0,0)"],
     ("catalog", "appendix", "interaction", "weyl")),
    (["catalog", "--name", "gamma_hat"], ("appendix", "interaction", "weyl", "covariance")),
    (["classify", "--pairs", "1,1"], ()),
    (["spin", "--system", "D311"], ()),
    (["covariance", "--system", "levy_leblond"], ()),
    (["reduce", "--system", "levy_leblond", "--A=-1/2*x2;1/2*x1;0"], ()),
    (["proca"], ()),
    (["contract-dkp"], ()),
    (["appendix"], ()),
])
def test_verb_loads_only_what_it_runs(capsys, argv, not_loaded):
    rc, out, loaded = _loaded_by(argv)
    assert rc == 0
    assert out == run_cli(argv, capsys)[1]
    assert loaded.isdisjoint(f"galilei.{name}" for name in not_loaded)


def test_verbs_reference_digests(capsys):
    """Each recorded verbs command, run in-process, exits 0 with the
    recorded stdout digest."""
    with open(VERBS_REF) as f:
        ref = json.load(f)
    bad = []
    for cmd, digest in sorted(ref.items()):
        rc, out, _ = run_cli(cmd.split(" "), capsys)
        if rc != 0 or hashlib.sha256(out.encode()).hexdigest() != digest:
            bad.append(cmd)
    assert ref
    assert bad == []
