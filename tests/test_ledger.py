"""LEDGER.md checked against the code.

For every ledger entry: the exact value equals what the program computes,
the printed value differs from it, and the printed value, the exact value,
the reproducing command and the output it quotes all appear in the
entry's section.  The command is run in-process and must print what the
entry quotes.

Expression values are compared at seeded random rational points
(Schwartz-Zippel; seed SEED): the exact expression must agree with the
program at every point, the printed one must disagree at some point.
"""

import random
import shlex
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

from galilei import catalog as cat
from galilei.cli import main
from galilei.interaction import couple_anomalous, extract_g, make_setting, reduce_coupled
from galilei.matrix import dot
from galilei.poly import Poly, PolyRing
from galilei.reps import PAULI, spin1_matrix
from galilei.scalars import GRat
from galilei.spin import spin_content
from galilei.weyl import FieldConfig

HALF = GRat(Fraction(1, 2))
SEED = 707
POINTS = 5
LEDGER = Path(__file__).resolve().parents[1] / "LEDGER.md"


def _section(number):
    text = LEDGER.read_text(encoding="utf-8")
    head = f"\n## {number}. "
    assert head in text, f"LEDGER.md has no entry {number}"
    return text.split(head, 1)[1].split("\n## ", 1)[0]


# -- what the program computes ---------------------------------------------------


def _d110_multiplets():
    """Spins of the plane-wave multiplets of the four-component system."""
    rep = spin_content(cat.system_D110())
    assert rep.two_route_equal
    out = []
    for b in rep.branches:
        size = int(2 * b.spin + 1)
        assert b.multiplicity % size == 0
        out += [str(b.spin)] * (b.multiplicity // size)
    return sorted(out)


def _vector_reduction(scale=1):
    params, xring, alg = make_setting(extra_params=("q1", "h", "lam1", "lam2", "nu"),
                                      invertible=("m", "e", "nu"))
    a0 = -(xring.sym("q1") * xring.sym("x1") ** 2) * HALF
    h = xring.sym("h")
    fc = FieldConfig(alg, a0, [h * xring.sym("x2") * (-HALF), h * xring.sym("x1") * HALF,
                               xring.zero])
    bs = cat.system_D311(ring=PolyRing(("nu",), invertible=("nu",)))
    co = couple_anomalous(bs, fc, bs.beta0 * GRat(scale), phys=(0, 1, 2),
                          spin_phys=[spin1_matrix(a) for a in range(3)])
    return alg, reduce_coupled(co)


def _spinor_reduction(scale=1):
    params, xring, alg = make_setting(extra_params=("h", "e1", "lam1", "lam2", "mu", "nuL"),
                                      invertible=("m", "e"))
    h = xring.sym("h")
    fc = FieldConfig(alg, xring.sym("e1") * xring.sym("x1") * (-1),
                     [h * xring.sym("x2") * (-HALF), h * xring.sym("x1") * HALF,
                      xring.zero])
    lring = PolyRing(("mu", "nuL"))
    lam = dot([cat.levy_leblond().beta0, cat.ll_lambda_generator()],
              [lring.sym("nuL"), lring.sym("mu")], lring) * GRat(scale)
    co = couple_anomalous(cat.levy_leblond(), fc, lam, phys=(0, 1),
                          spin_phys=[s * HALF for s in PAULI])
    return alg, reduce_coupled(co)


def _lam3(alg, rep):
    """lambda3 from the reduced spinor operator's -(e/m) lam3 s.E term."""
    return rep.named["s.E"] * (alg.params.sym("m") * alg.params.sym("e", -1) * (-1))


def _vector_g():
    alg, rep = _vector_reduction()
    return extract_g(rep, alg)


def _vector_se():
    return _vector_reduction()[1].named["s.E"]


def _spinor_lam3():
    return _lam3(*_spinor_reduction())


@dataclass
class Entry:
    number: int
    printed: str
    exact: str
    compute: Callable
    command: str
    shows: tuple


ENTRY_2_COMMAND = ('galilei reduce --system D311 --coupling anomalous --lambda1 1 '
                   '--lambda2 1 --A="-1/2*x2;1/2*x1;0" --A0="-1/2*x1^2"')

ENTRIES = [
    Entry(1, "{s=1}", "{s=0}", _d110_multiplets,
          "galilei spin --system D110",
          ('"s": "0"', '"mult": 1', '"two_route_equal": true')),
    Entry(2, "1 + 2*lam1 + 2*lam2", "1 + lam2 - lam1/(2*nu)", _vector_g,
          ENTRY_2_COMMAND, ('"g": "-1/2*nu^-1 + 2"',)),
    Entry(3, "e/(nu*m)*(1 - lam2)", "e/(2*nu*m)*(1 + lam2/2)", _vector_se,
          ENTRY_2_COMMAND, ('"s.E": "3/4*m^-1*e*nu^-1"',)),
    Entry(4, "mu*lam2", "mu*lam2/2", _spinor_lam3,
          'galilei reduce --system levy_leblond --coupling anomalous --lambda1 1/2 '
          '--lambda2 1/3 --A="-1/2*x2;1/2*x1;0" --A0="-x1"',
          ('"s.E": "-1/6*m^-1*e"', '"g": "17/6"')),
]


# -- comparing a ledger string with a computed value -----------------------------


def _points(ring):
    rng = random.Random(SEED)
    return [{n: Fraction(rng.randint(1, 97), rng.randint(1, 97)) for n in ring.names}
            for _ in range(POINTS)]


def _agreement(text, value):
    """Per-point agreement of a ledger string with a computed value."""
    if text.startswith("{"):
        spins = sorted(part.strip().removeprefix("s=") for part in text[1:-1].split(","))
        return [spins == value]
    assert isinstance(value, Poly)
    out = []
    for pt in _points(value.ring):
        want = eval(text, {"__builtins__": {}}, dict(pt))
        out.append(value.eval({n: GRat(v) for n, v in pt.items()}) == GRat(want))
    return out


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda en: f"entry{en.number}")
def test_exact_value_is_computed_and_printed_differs(entry):
    value = entry.compute()
    assert all(_agreement(entry.exact, value))
    assert not all(_agreement(entry.printed, value))


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda en: f"entry{en.number}")
def test_entry_quotes_values_and_command(entry):
    sec = _section(entry.number)
    assert f"Printed: `{entry.printed}`" in sec
    assert f"Exact: `{entry.exact}`" in sec
    assert f"`{entry.command}`" in sec
    for frag in entry.shows:
        assert f"`{frag}`" in sec


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda en: f"entry{en.number}")
def test_command_prints_what_the_entry_quotes(entry, capsys):
    argv = shlex.split(entry.command)
    assert argv[0] == "galilei"
    assert main(argv[1:]) == 0
    out = capsys.readouterr().out
    for frag in entry.shows:
        assert frag in out


def test_no_single_normalisation_gives_the_printed_values():
    # doubling the anomalous term (e/m instead of e/2m): the spinor lam3
    # becomes the printed mu lam2 but the slopes of g double
    alg, rep = _spinor_reduction(scale=2)
    p = alg.params
    mu, nuL, lam1, lam2 = (p.sym(n) for n in ("mu", "nuL", "lam1", "lam2"))
    assert _lam3(alg, rep) == mu * lam2
    assert extract_g(rep, alg) == p.const(GRat(2)) + mu * lam1 * 2 + nuL * lam2 * 2
    # and the vector values still differ from the printed ones
    alg, rep = _vector_reduction(scale=2)
    p = alg.params
    lam1, lam2, nuinv = p.sym("lam1"), p.sym("lam2"), p.sym("nu", -1)
    e, minv = p.sym("e"), p.sym("m", -1)
    assert extract_g(rep, alg) == p.one + lam2 * 2 - lam1 * nuinv
    assert rep.named["s.E"] == (e * minv * nuinv * HALF) * (p.one + lam2)
