"""CLI outputs pinned byte for byte on six small algebras.

``tests/golden/NAME.qv`` is the input and ``tests/golden/NAME.json`` maps
each command line (the file left out) to its exit code, stdout and stderr.
Two of the algebras are not admissible, so their error text, which names
the witness cycle, is pinned too.
Rewrite the recorded outputs from the current package with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

import quiverdim as qd
from quiverdim import cli, qvfile

from conftest import (
    complete_quiver,
    golden_algebra,
    golden_quiver,
    linear_quiver,
    one_loop_algebra,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def algebras() -> dict[str, qd.Algebra]:
    k4, a5 = complete_quiver(4), linear_quiver(5)
    loops = qd.Quiver(1, (qd.Arrow("x", 1, 1), qd.Arrow("y", 1, 1)))
    return {
        "golden": golden_algebra(),
        "k4-localmax": qd.Algebra(k4, qd.local_max_ideal(k4)),
        "a5-chain": qd.Algebra(a5, qd.chain_ideal(a5, 5)),
        "one-loop": one_loop_algebra(3),
        "free-golden": qd.Algebra(golden_quiver()),
        "two-loops": qd.Algebra(loops, [loops.path(1, ("x", "x")), loops.path(1, ("y", "y"))]),
    }


def commands(n: int) -> list[list[str]]:
    """Every command of the golden table, without the input file."""
    tails = [[c] for c in ("gldim", "corollary", "check-sqh", "verify", "oracle-check")]
    tails += [["construct", "--target", str(t)] for t in range(n + 2)]
    modules = [f"{kind}:{i}" for kind in ("S", "Delta", "Gamma", "P") for i in range(1, n + 1)]
    for module in modules:
        tails.append(["resolve", "--module", module])
        tails.append(["resolve", "--module", module, "--max-deg", "3"])
    renders = [["render", "--module", module] for module in modules]  # text only
    return [tail + flag for tail in tails for flag in ([], ["--json"])] + renders


def run(tail: list[str], path: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([tail[0], path, *tail[1:]])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def outputs(name: str, n: int) -> dict[str, dict]:
    path = str(GOLDEN / f"{name}.qv")
    return {" ".join(tail): run(tail, path) for tail in commands(n)}


@pytest.mark.parametrize("name", list(algebras()))
def test_cli_output_matches_golden(name):
    algebra = algebras()[name]
    path = GOLDEN / f"{name}.qv"
    assert path.read_text() == qvfile.emit(algebra.quiver, algebra.relations)
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got = outputs(name, algebra.quiver.n)
    assert list(got) == list(want)
    for command in want:
        assert got[command] == want[command], command


def test_one_loop_resolution_reports_its_cycle():
    want = json.loads((GOLDEN / "one-loop.json").read_text())["resolve --module S:1"]
    assert want["exit"] == 1 and want["stdout"] == ""
    assert want["stderr"].startswith("infinite resolution: resolution does not terminate")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, algebra in algebras().items():
        (GOLDEN / f"{name}.qv").write_text(qvfile.emit(algebra.quiver, algebra.relations))
        table = outputs(name, algebra.quiver.n)
        (GOLDEN / f"{name}.json").write_text(json.dumps(table, indent=1) + "\n")
