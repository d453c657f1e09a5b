import pytest

import quiverdim as qd
from quiverdim import cli, qvfile

from conftest import golden_algebra, golden_quiver


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
