import json
import random

import pytest

import quiverdim as qd
from quiverdim import cli, qvfile

from conftest import (
    complete_quiver,
    golden_algebra,
    golden_quiver,
    linear_quiver,
    one_loop_algebra,
    random_loopless_quiver,
)


@pytest.fixture
def golden_file(tmp_path):
    algebra = golden_algebra()
    path = tmp_path / "golden.qv"
    path.write_text(qvfile.emit(algebra.quiver, algebra.relations))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["check-sqh"], ["render", "--module", "S:1"]],
)
def test_basis_cap_is_an_input_error(argv, golden_file, monkeypatch, capsys):
    def capped(self):
        raise qd.BasisCapExceeded("more than 3 nonzero paths; is the relation set admissible?")

    monkeypatch.setattr(qd.Algebra, "_enumerate_basis", capped)
    assert cli.main(argv + [golden_file]) == 2
    assert capsys.readouterr().err == (
        "error: more than 3 nonzero paths; is the relation set admissible?\n"
    )


def test_not_admissible_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "free.qv"
    path.write_text(qvfile.emit(golden_quiver()))
    assert cli.main(["gldim", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: nonzero cycle ")


def test_gldim_of_a_long_line(tmp_path, capsys):
    q = linear_quiver(2000)
    path = tmp_path / "line.qv"
    path.write_text(qvfile.emit(q, qd.chain_ideal(q, 2000)))
    assert cli.main(["gldim", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["gldim"] == 1999


def test_gamma_takes_no_second_index(golden_file, capsys):
    assert cli.main(["resolve", golden_file, "--module", "Gamma:1:3"]) == 2
    assert capsys.readouterr().err.startswith("error: bad module spec 'Gamma:1:3'")


@pytest.mark.parametrize(
    "argv", [["check-sqh", "--field", "7"], ["render", "--module", "S:1", "--format", "dot"]]
)
def test_removed_options_are_usage_errors(argv, golden_file):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv[:1] + [golden_file] + argv[1:])
    assert exc.value.code == 2


def test_qv1_round_trip():
    k4, a5, loop = complete_quiver(4), linear_quiver(5), one_loop_algebra(3)
    cases = [
        (golden_quiver(), golden_algebra().relations),
        (golden_quiver(), qd.RelationSet(())),
        (k4, qd.local_max_ideal(k4)),
        (a5, qd.chain_ideal(a5, 5)),
        (loop.quiver, loop.relations),
    ]
    rng = random.Random(3)
    for _ in range(20):
        q = random_loopless_quiver(rng)
        cases.append((q, qd.local_max_ideal(q)))
    for q, relations in cases:
        q2, relations2 = qvfile.parse(qvfile.emit(q, relations))
        assert q2 == q
        assert relations2.generators == relations.generators
