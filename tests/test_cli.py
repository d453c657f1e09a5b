import contextlib
import dataclasses
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile
from collections import Counter

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import quiverdim as qd
from quiverdim import cli, homology, oracle, qvfile

from conftest import (
    complete_quiver,
    golden_algebra,
    golden_quiver,
    linear_quiver,
    one_loop_algebra,
    random_loopless_quiver,
)

TESTS = pathlib.Path(__file__).parent
GOLDEN_QV = str(TESTS / "golden" / "golden.qv")


@pytest.fixture
def golden_file(tmp_path):
    algebra = golden_algebra()
    path = tmp_path / "golden.qv"
    path.write_text(qvfile.emit(algebra.quiver, algebra.relations))
    return str(path)


def _capped(self):
    raise qd.BasisCapExceeded("more than 3 nonzero paths; is the relation set admissible?")


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["render", "--module", "S:1"]],
)
def test_basis_cap_is_an_input_error(argv, golden_file, monkeypatch, capsys):
    monkeypatch.setattr(qd.Algebra, "_enumerate_basis", _capped)
    assert cli.main(argv + [golden_file]) == 2
    assert capsys.readouterr().err == (
        "error: more than 3 nonzero paths; is the relation set admissible?\n"
    )


def test_verify_catches_an_automaton_without_failure_links(tmp_path, monkeypatch, capsys):
    # The automaton is built as if every failure link of the trie pointed at
    # the root, while the chain walk reads the real links: the chain
    # engine's Betti numbers go wrong, and the oracle, on a basis grown from
    # the generator words, has to say so.
    number_states = qd.Algebra._number_states

    def without_failure_links(self):
        fail = self.relations.fail
        vars(self.relations)["fail"] = [0] * len(fail)
        try:
            number_states(self)
        finally:
            vars(self.relations)["fail"] = fail

    path = tmp_path / "fault.qv"
    path.write_text(
        "quiver 2\narrow x0 1 2\narrow x1 2 1\narrow x2 2 1\n"
        "relations\nrel x0 x1\nrel x0 x2 x0\nrel x2 x0 x2\n"
    )
    assert cli.main(["verify", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(qd.Algebra, "_number_states", without_failure_links)
    assert cli.main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "check betti_match_S_1: FAIL" in out
    assert out.endswith("some checks FAILED\n")


def test_verify_checks_the_bound_it_prints(monkeypatch, capsys):
    # A bound one too large still says every path of that length vanishes;
    # the longest path of the basis, grown without the automaton, refutes it.
    assert cli.main(["verify", GOLDEN_QV]) == 0
    row = "check admissible: ok (all paths of length 5 vanish)\n"
    assert capsys.readouterr().out.startswith(row)
    check_admissible = qd.Algebra._check_admissible

    def one_too_large(self):
        adm = check_admissible(self)
        return dataclasses.replace(adm, bound=adm.bound + 1)

    monkeypatch.setattr(qd.Algebra, "_check_admissible", one_too_large)
    assert cli.main(["verify", GOLDEN_QV]) == 1
    out = capsys.readouterr().out
    assert out.startswith("check admissible: FAIL (all paths of length 6 vanish)\n")
    assert out.endswith("some checks FAILED\n")


def test_check_sqh_never_builds_the_basis(monkeypatch, capsys):
    monkeypatch.setattr(qd.Algebra, "_enumerate_basis", _capped)
    want = json.loads((TESTS / "golden" / "golden.json").read_text())["check-sqh --json"]
    code = cli.main(["check-sqh", GOLDEN_QV, "--json"])
    out, err = capsys.readouterr()
    assert {"exit": code, "stdout": out, "stderr": err} == want


def test_check_sqh_records_carry_every_report_field(capsys):
    # the records are written field by field: a field added to the report
    # must not drop out of the JSON
    assert cli.main(["check-sqh", GOLDEN_QV, "--json"]) == 0
    records = json.loads(capsys.readouterr().out)["sqh"]["vertices"]
    fields = [f.name for f in dataclasses.fields(qd.qh.SqhVertexReport)]
    assert records and all(sorted(r) == sorted(fields) for r in records.values())


@pytest.mark.parametrize("shape", ["K5-localmax", "A30-chain"])
def test_gldim_checks_each_fact_once(shape, tmp_path, monkeypatch, capsys):
    # qvfile.parse checks every relation, and the planner builds its ideals
    # from the quiver's arrows; Algebra and the chain walk trust the set and
    # the paths built from it, so gldim and construct make no path check
    # and no zero test.
    if shape == "K5-localmax":
        q, gldim = complete_quiver(5), 2
        relations = qd.local_max_ideal(q)
    else:
        q, gldim = linear_quiver(30), 29
        relations = qd.chain_ideal(q, 30)
    path = tmp_path / f"{shape}.qv"
    path.write_text(qvfile.emit(q, relations))
    calls = {"has_path": 0, "is_zero_word": 0}
    for owner, name in ((qd.Quiver, "has_path"), (qd.Algebra, "is_zero_word")):

        def counted(*args, _name=name, _original=getattr(owner, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    assert cli.main(["gldim", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["gldim"] == gldim
    assert calls == {"has_path": 0, "is_zero_word": 0}
    assert cli.main(["construct", str(path), "--target", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["gldim"] == 3
    assert calls == {"has_path": 0, "is_zero_word": 0}
    # the same relations from a library caller are checked
    qd.Algebra(q, relations)
    assert calls["has_path"] == len(relations) > 0


@pytest.mark.parametrize("command", ["verify", "oracle-check"])
@pytest.mark.parametrize("shape", ["a5-chain", "A8-chain"])
def test_each_distinct_module_is_resolved_once(command, shape, tmp_path, monkeypatch, capsys):
    # On a line Delta_i = P_i and Gamma_i = S_i, and at the sink all three
    # labels name S_n: 15 labels, 9 modules on A5.  Each module gets one
    # chain resolution, one matrix resolution per prime and, in verify,
    # one Euler check, and the output is the same.
    q = linear_quiver(int(shape[1]))
    if shape == "a5-chain":
        path = str(TESTS / "golden" / "a5-chain.qv")
    else:
        path = str(tmp_path / "a8.qv")
        pathlib.Path(path).write_text(qvfile.emit(q, qd.chain_ideal(q, 8)))
    calls: Counter = Counter()  # (function, spec) -> calls
    for module, name in (
        (homology, "resolve"),
        (oracle, "minimal_resolution"),
        (homology, "check_euler_identity"),
    ):

        def counted(algebra, spec, *args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name, spec] += 1
            return _original(algebra, spec, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert cli.main([command, path, "--json"]) == 0
    out, err = capsys.readouterr()
    if shape == "a5-chain":
        want = json.loads((TESTS / "golden" / "a5-chain.json").read_text())[f"{command} --json"]
        assert {"exit": 0, "stdout": out, "stderr": err} == want
    kinds = (qd.ModuleSpec.simple, qd.ModuleSpec.delta, qd.ModuleSpec.gamma)
    specs = {make(q, i) for make in kinds for i in q.vertices()}
    assert len(specs) == 2 * q.n - 1
    per_spec = {"resolve": 1, "minimal_resolution": 1, "check_euler_identity": 1}
    if command == "oracle-check":  # over GF(2) and GF(101), and no Euler check
        per_spec = {"resolve": 1, "minimal_resolution": 2}
    assert calls == Counter({(name, spec): n for name, n in per_spec.items() for spec in specs})


def test_an_oversized_oracle_cover_is_an_input_error(monkeypatch, capsys):
    # The largest cover fiber verify meets on golden.qv still passes at a
    # cap of exactly its size; one entry less is refused, with no traceback.
    sizes = []
    cover_kernels = oracle._cover_kernels

    def recorded(algebra, rep, lifts):
        cover, kernels = cover_kernels(algebra, rep, lifts)
        sizes.extend(n * max(rep.dims[w], n) for w, n in cover.dims.items())
        return cover, kernels

    monkeypatch.setattr(oracle, "_cover_kernels", recorded)
    want = json.loads((TESTS / "golden" / "golden.json").read_text())["verify --json"]
    assert cli.main(["verify", GOLDEN_QV, "--json"]) == 0
    capsys.readouterr()
    largest = max(sizes)
    monkeypatch.setattr(oracle, "MAX_ENTRIES", largest)
    code = cli.main(["verify", GOLDEN_QV, "--json"])
    out, err = capsys.readouterr()
    assert {"exit": code, "stdout": out, "stderr": err} == want
    monkeypatch.setattr(oracle, "MAX_ENTRIES", largest - 1)
    assert cli.main(["verify", GOLDEN_QV, "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: the oracle's projective cover has ")
    assert err.endswith(f"eliminating there needs more than {largest - 1} matrix entries\n")


def test_an_oversized_automaton_is_an_input_error(tmp_path, monkeypatch, capsys):
    # the fan of 1 -> 2 (x3), 2 -> 3 (x3) and the relations c_j a0 needs 15
    # transitions: refused past a cap of 14, with no traceback
    lines = ["quiver 3"] + [f"arrow c{j} 1 2" for j in range(3)]
    lines += [f"arrow a{k} 2 3" for k in range(3)] + ["relations"]
    lines += [f"rel c{j} a0" for j in range(3)]
    path = tmp_path / "fan.qv"
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(qd.algebra, "MAX_TRANSITIONS", 15)
    assert cli.main(["gldim", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(qd.algebra, "MAX_TRANSITIONS", 14)
    assert cli.main(["gldim", str(path)]) == 2
    assert capsys.readouterr() == ("", (
        "error: the automaton needs 15 transitions, more than 14; "
        "is the relation set too large for this quiver?\n"
    ))


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
    "argv",
    [
        ["check-sqh", "--field", "7"],
        ["render", "--module", "S:1", "--format", "dot"],
        ["render", "--module", "S:1", "--json"],
    ],
)
def test_removed_options_are_usage_errors(argv, golden_file):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv[:1] + [golden_file] + argv[1:])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--field", "0"], "0 is not prime"),
        (["oracle-check", "--field", "0"], "0 is not prime"),
        (["resolve", "--module", "S:1", "--max-deg", "-1"], "max_deg must be >= 0"),
        (["verify", "--max-deg", "-1"], "max_deg must be >= 0"),
        (["oracle-check", "--max-deg", "-1"], "max_deg must be >= 0"),
        # refused before any degree is computed: each takes time and prints
        (["resolve", "--module", "S:1", "--max-deg", "10001"], "max_deg must be <= 10000"),
        (["verify", "--max-deg", "10001"], "max_deg must be <= 10000"),
        (["oracle-check", "--max-deg", "10001"], "max_deg must be <= 10000"),
        (
            ["resolve", "--module", "S:1", "--max-deg", "99999999999999999999"],
            "max_deg must be <= 10000",
        ),
        # a large prime is refused before trial division, a huge one before
        # any float conversion
        pytest.param(
            ["oracle-check", "--field", str(2**61 - 1)],
            f"modulus {2**61 - 1} too large (max 32749)",
            id="prime-2**61-1",
        ),
        pytest.param(
            ["verify", "--field", str(10**399)],
            f"modulus {10**399} too large (max 32749)",
            id="400-digits",
        ),
    ],
)
def test_bad_numeric_options_are_input_errors(argv, message, golden_file, capsys):
    assert cli.main(argv[:1] + [golden_file] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


INTEGER_FLAGS = [
    ["resolve", "--module", "S:1", "--max-deg"],
    ["verify", "--max-deg"],
    ["oracle-check", "--max-deg"],
    ["construct", "--target"],
    ["verify", "--field"],
    ["oracle-check", "--field"],
]


@pytest.mark.parametrize("spelling", ["+3", "1_01", "\u0663"])
@pytest.mark.parametrize("argv", INTEGER_FLAGS, ids=" ".join)
def test_integer_flags_follow_the_qv1_digit_rule(argv, spelling, golden_file, capsys):
    # int() takes each spelling, as 3 or 101; flags take ASCII digits after
    # an optional "-", like vertex numbers in QV1 and in --module
    with pytest.raises(SystemExit) as exc:
        cli.main(argv[:1] + [golden_file] + argv[1:] + [spelling])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{argv[-1]}: invalid integer value: {spelling!r}" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--field", "4"], "4 is not prime"),
        (["verify", "--max-deg", "-1"], "max_deg must be >= 0"),
        (["oracle-check", "--field", "4"], "4 is not prime"),
        (["oracle-check", "--max-deg", "-1"], "max_deg must be >= 0"),
        (["resolve", "--module", "S:1", "--max-deg", "10001"], "max_deg must be <= 10000"),
        (["verify", "--max-deg", "10001"], "max_deg must be <= 10000"),
        (["oracle-check", "--max-deg", "99999999999999999999"], "max_deg must be <= 10000"),
    ],
)
def test_bad_numeric_options_precede_the_admissibility_check(argv, message, capsys):
    free = str(TESTS / "golden" / "free-golden.qv")
    assert cli.main(argv[:1] + [free] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_max_deg_accepts_its_bound(capsys):
    one_loop = str(TESTS / "golden" / "one-loop.qv")  # pdim S(1) is infinite
    argv = ["resolve", one_loop, "--module", "S:1", "--max-deg", str(cli.MAX_DEG), "--json"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert not report["complete"]
    assert len(report["betti"]) == cli.MAX_DEG + 1


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no limit on integer digits"
)
@pytest.mark.parametrize("as_json", [False, True])
def test_resolve_refuses_betti_numbers_past_the_digit_limit(as_json, tmp_path, capsys):
    # 10 arrows each way between two vertices and every length-2 relation:
    # the Betti number in degree d is 10^d, which has d + 1 digits.
    lines = ["quiver 2"] + [f"arrow a{t} 1 2" for t in range(10)]
    lines += [f"arrow b{t} 2 1" for t in range(10)] + ["relations"]
    lines += [f"rel {x}{s} {y}{t}" for x, y in ("ab", "ba") for s in range(10) for t in range(10)]
    path = tmp_path / "ten.qv"
    path.write_text("\n".join(lines) + "\n")
    flags = ["--json"] if as_json else []
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the least limit Python allows
    try:
        argv = ["resolve", str(path), "--module", "S:1", "--max-deg"]
        assert cli.main(argv + ["640"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: degree 640 has a Betti number of more than 640 digits, past Python's "
            "limit for printing an integer; rerun with --max-deg below 640\n"
        )
        assert sys.get_int_max_str_digits() == 640
        assert cli.main(argv + ["639"] + flags) == 0
        out = capsys.readouterr().out
        last = json.loads(out)["betti"][-1] if as_json else out.splitlines()[-2]
        assert last == ({"2": 10**639} if as_json else f"degree 639: P(2)^{10**639}")
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("vertex", [1, 2, 3])
def test_an_m_spec_prints_what_its_shorthand_prints(vertex, capsys):
    # P(i) kills nothing, S(i) every out-arrow, Delta(i) those to smaller vertices.
    outs = qvfile.load(GOLDEN_QV)[0].out_arrows(vertex)
    down = ",".join(a.id for a in outs if a.target < vertex)
    pairs = [
        (f"M:{vertex}:{down}", f"Delta:{vertex}"),
        (f"M:{vertex}:", f"P:{vertex}"),
        (f"M:{vertex}:{','.join(a.id for a in outs)}", f"S:{vertex}"),
    ]

    def run(*argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    for spec, shorthand in pairs:
        for command in ("resolve", "render"):
            got = run(command, GOLDEN_QV, "--module", spec)
            assert got[0] == 0 and got == run(command, GOLDEN_QV, "--module", shorthand)
        reports = []
        for module in (spec, shorthand):
            code, out, err = run("resolve", GOLDEN_QV, "--module", module, "--json")
            assert (code, err) == (0, "")
            report = json.loads(out)
            assert report.pop("module") == module
            reports.append(report)
        assert reports[0] == reports[1]


def test_only_the_oracle_commands_load_numpy():
    # A fresh interpreter, since this one may have loaded numpy already.
    script = (
        "import sys, quiverdim, quiverdim.cli\n"
        "print('numpy' in sys.modules, file=sys.stderr)\n"
        "sys.exit(quiverdim.cli.main(['verify', sys.argv[1], '--json']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, GOLDEN_QV],
        env={**os.environ, "PYTHONPATH": str(TESTS.parent / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.stderr == "False\n"
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


def test_the_shared_parser_keeps_no_state_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        cli.main(["construct", GOLDEN_QV])  # --target missing
    assert exc.value.code == 2
    assert cli.main(["resolve", GOLDEN_QV, "--module", "Q:1", "--max-deg", "3"]) == 2
    capsys.readouterr()
    want = json.loads((TESTS / "golden" / "golden.json").read_text())["resolve --module S:1 --json"]
    code = cli.main(["resolve", GOLDEN_QV, "--module", "S:1", "--json"])
    out, err = capsys.readouterr()
    assert {"exit": code, "stdout": out, "stderr": err} == want


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


NOT_NEWLINES = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# str.split() also separates at these; QV1 separates at spaces and tabs only
NOT_SEPARATORS = NOT_NEWLINES + "\x1f\xa0\u1680\u202f\u205f\u3000" + "".join(
    map(chr, range(0x2000, 0x200B))
)

BAD_QV1 = [
    ("quiver 2\nquiver 2\n", "line 2: duplicate 'quiver' directive"),
    ("quiver 2 3\n", "line 1: expected: quiver <vertex count>"),
    ("quiver \u00b2\n", "line 1: expected: quiver <vertex count>"),  # a digit, not decimal
    ("quiver \u0663\n", "line 1: expected: quiver <vertex count>"),  # a decimal, not ASCII
    ("quiver 3\narrow a \u0661 \u0662\n", "line 2: arrow endpoints must be integers"),
    ("quiver 100001\n", "line 1: more than 100000 vertices"),
    ("quiver 99999999999999999999\n", "line 1: more than 100000 vertices"),
    # past CPython's 4,300-digit limit for int(): refused by digit count
    pytest.param(
        "quiver " + "9" * 5000 + "\n", "line 1: more than 100000 vertices", id="5000-digit-count"
    ),
    pytest.param(
        "quiver 2\narrow a 1 " + "7" * 5000 + "\n",
        "line 2: endpoint outside 1..2",
        id="5000-digit-endpoint",
    ),
    pytest.param(
        "quiver 2\narrow a -" + "1" * 5000 + " 2\n",
        "line 2: endpoint outside 1..2",
        id="negative-5000-digit-endpoint",
    ),
    ("quiver 0003\narrow a 1 4\n", "line 2: endpoint outside 1..3"),  # 0003 is 3
    ("arrow a 1 2\n", "line 1: 'arrow' before 'quiver'"),
    ("quiver 2\nrelations\narrow a 1 2\n", "line 3: 'arrow' after 'relations'"),
    ("quiver 2\narrow a 1\n", "line 2: expected: arrow <id> <source> <target>"),
    ("quiver 2\narrow a 1 2\narrow a 2 1\n", "line 3: duplicate arrow id 'a'"),
    ("quiver 2\narrow a 1 b\n", "line 2: arrow endpoints must be integers"),
    ("quiver 2\narrow a +1 2\n", "line 2: arrow endpoints must be integers"),
    ("quiver 12\narrow a 1 1_0\n", "line 2: arrow endpoints must be integers"),
    ("quiver 2\narrow a 1 3\n", "line 2: endpoint outside 1..2"),
    ("quiver 2\narrow a -1 2\n", "line 2: endpoint outside 1..2"),
    ("relations\n", "line 1: 'relations' before 'quiver'"),
    ("quiver 2\nrelations\nrelations\n", "line 3: duplicate 'relations' directive"),
    ("quiver 2\nrel a\n", "line 2: 'rel' before 'relations'"),
    ("quiver 2\nrelations\nrel\n", "line 3: empty relation"),
    ("quiver 2\nloop a 1\n", "line 2: unknown directive 'loop'"),
    ("# nothing\n\n", "line 1: missing 'quiver' directive"),
    ("quiver 2\narrow a-b 1 2\n", "line 2: arrow id 'a-b' is not an ASCII word"),
    (
        "# c\nquiver 3\narrow ok 1 2\n\narrow b-c 2 3\n",
        "line 5: arrow id 'b-c' is not an ASCII word",
    ),
    ("quiver 2\narrow a 1 2\nrelations\nrel a z\n", "line 4: unknown arrow id 'z' in relation"),
    (
        "quiver 2\narrow a 1 2\nrelations\nrel a a\n",
        "line 4: relation does not compose: word ('a', 'a') breaks at 'a': "
        "expected source 2, got 1",
    ),
    ("quiver 2\narrow a 1 1\nrelations\nrel a a\nrel a\n", "line 5: relations must have length >= 2"),
    # a rel line is checked on its line, before any later line is read
    (
        "quiver 2\narrow a 1 2\nrelations\nrel a zz\nbogus line\n",
        "line 4: unknown arrow id 'zz' in relation",
    ),
    (
        "quiver 2\narrow a 1 2\narrow b 2 1\nrelations\nrel a a\nrelations\n",
        "line 5: relation does not compose: word ('a', 'a') breaks at 'a': "
        "expected source 2, got 1",
    ),
    ("quiver 2\r\narrow a 1 2\rloop a 1\r\n", "line 3: unknown directive 'loop'"),
] + [
    # str.splitlines() also ends a line at these; QV1 does not
    pytest.param(
        f"quiver 2\narrow a 1 2  # 1{char}to 2\nloop a 1\n",
        "line 3: unknown directive 'loop'",
        id=f"comment-with-U+{ord(char):04X}",
    )
    for char in NOT_NEWLINES
] + [
    pytest.param(
        f"quiver 2\narrow a 1{char}2\n",
        "line 2: expected: arrow <id> <source> <target>",
        id=f"separator-U+{ord(char):04X}",
    )
    for char in NOT_SEPARATORS
] + [
    ("quiver 2\x0c\n", "line 1: expected: quiver <vertex count>"),
    ("quiver 2\n\u3000\n", "line 2: unknown directive '\\u3000'"),
    (
        "quiver 2\narrow a 1 2\nrelations\nrel a\xa0a\n",
        "line 4: unknown arrow id 'a\\xa0a' in relation",
    ),
]


@pytest.mark.parametrize("text, message", BAD_QV1)
def test_malformed_qv1_is_an_input_error(text, message, tmp_path, capsys):
    path = tmp_path / "bad.qv"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["gldim", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("char", NOT_NEWLINES, ids=lambda char: f"U+{ord(char):04X}")
def test_a_comment_may_hold_what_splitlines_splits_at(char):
    q, relations = qvfile.parse(
        f"quiver 2\narrow a 1 2  # 1{char}to 2\narrow b 2 1\nrelations\nrel a b\n"
    )
    assert q == qd.Quiver(2, (qd.Arrow("a", 1, 2), qd.Arrow("b", 2, 1)))
    assert relations.words() == (("a", "b"),)


def test_spaces_and_tabs_separate_fields():
    q, relations = qvfile.parse(
        " quiver\t2 \n\tarrow  a\t 1 2\t\narrow b 2 1\nrelations \nrel\ta \t b\n"
    )
    assert q == qd.Quiver(2, (qd.Arrow("a", 1, 2), qd.Arrow("b", 2, 1)))
    assert relations.words() == (("a", "b"),)


def test_leading_zeros_do_not_count_as_digits():
    padded = "0" * 5000
    q, _ = qvfile.parse(f"quiver {padded}3\narrow a {padded}1 {padded}3\n")
    assert q == qd.Quiver(3, (qd.Arrow("a", 1, 3),))


def random_relation_input(rng):
    """A quiver and relation paths, not always reduced: the local-max ideal
    of a random loopless quiver, or walks of length 2-5 on a cycle or on
    loops at one vertex."""
    kind = rng.randrange(3)
    if kind == 0:
        q = random_loopless_quiver(rng)
        return q, list(qd.local_max_ideal(q))
    if kind == 1:
        n = rng.randint(1, 5)
        q = qd.Quiver(n, tuple(qd.Arrow(f"c{i}", i, i % n + 1) for i in range(1, n + 1)))
    else:
        q = qd.Quiver(1, tuple(qd.Arrow(f"x{k}", 1, 1) for k in range(rng.randint(1, 3))))
    paths = []
    for _ in range(rng.randint(0, 6)):
        walk = [rng.choice(q.arrows)]
        while len(walk) < 2 or (len(walk) < 5 and rng.random() < 0.5):
            walk.append(rng.choice(q.out_arrows(walk[-1].target)))
        paths.append(q.path(walk[0].source, tuple(a.id for a in walk)))
    return q, paths


def reformatted_qv1(rng, q, paths) -> str:
    """QV1 for ``q`` and ``paths`` (shuffled, some twice) with random field
    gaps of spaces and tabs, blank and comment lines, trailing comments,
    leading zeros and \\n, \\r\\n or \\r line ends."""

    def number(k):
        return "0" * rng.choice((0, 0, 1, 4)) + str(k)

    def gap():
        return "".join(rng.choice(" \t") for _ in range(rng.randint(1, 3)))

    rows = [["quiver", number(q.n)]]
    rows += [["arrow", a.id, number(a.source), number(a.target)] for a in q.arrows]
    rels = paths + rng.sample(paths, rng.randint(0, len(paths)))
    rng.shuffle(rels)
    rows += [["relations"]] + [["rel", *p.word] for p in rels]
    lines = []
    for row in rows:
        while rng.random() < 0.2:
            lines.append(rng.choice(["", gap(), "# a comment", gap() + "#\trel x y # z"]))
        line = rng.choice(["", gap()]) + gap().join(row) + rng.choice(["", gap()])
        if rng.random() < 0.3:
            line += rng.choice(["#", gap() + "# arrow a 1 2", "#\t# quiver 0"])
        lines.append(line)
    return "".join(line + rng.choice(["\n", "\r\n", "\r"]) for line in lines)


def test_reformatted_qv1_gives_the_same_tables():
    """Whatever its layout, a QV1 file parses to the quiver and the relation
    trie built from the paths directly; the generators are the reduced
    paths sorted by ``Path.sort_key``, whatever order they come in."""
    rng = random.Random(24)
    for case in range(300):
        q, paths = random_relation_input(rng)
        expected = qd.RelationSet(tuple(paths))
        q2, relations = qvfile.parse(reformatted_qv1(rng, q, paths))
        assert q2 == q and q2.arrows == q.arrows, case
        assert relations.generators == expected.generators, case
        for table in ("children", "fail", "depth", "word_at"):
            assert getattr(relations, table) == getattr(expected, table), (case, table)
        kept = list(expected.generators)
        shuffled = kept + rng.sample(kept, rng.randint(0, len(kept)))
        rng.shuffle(shuffled)
        generators = qd.RelationSet(tuple(shuffled)).generators
        assert generators == tuple(sorted(set(kept), key=qd.Path.sort_key)), case


BAD_SPECS = [
    ("S:0", "bad module spec 'S:0': unknown vertex 0 (quiver has vertices 1..3)"),
    ("S:x", "bad module spec 'S:x': invalid literal for int() with base 10: 'x'"),
    ("Q:1", "bad module spec 'Q:1'; use S:i, P:i, Delta:i, Gamma:i or M:i:a,b"),
    ("M:1:zz", "bad module spec 'M:1:zz': not out-arrows of 1: ['zz']"),
    # vertex numbers are ASCII digits, as in QV1, though int() takes these
    ("S:\u0661", "bad module spec 'S:\u0661': invalid literal for int() with base 10: '\u0661'"),
    ("S:+1", "bad module spec 'S:+1': invalid literal for int() with base 10: '+1'"),
    ("S:0_1", "bad module spec 'S:0_1': invalid literal for int() with base 10: '0_1'"),
    ("P: 1", "bad module spec 'P: 1': invalid literal for int() with base 10: ' 1'"),
    ("M:+1:a", "bad module spec 'M:+1:a': invalid literal for int() with base 10: '+1'"),
]


@pytest.mark.parametrize("command", ["resolve", "render"])
@pytest.mark.parametrize("spec, message", BAD_SPECS)
def test_bad_module_spec_is_an_input_error(command, spec, message, golden_file, capsys):
    assert cli.main([command, golden_file, "--module", spec]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_construct_survives_an_exhausted_budget(tmp_path, capsys):
    # On K10 every line is extendable, so the line route exhausts its search
    # budget; the one-cycle route still certifies.
    path = tmp_path / "k10.qv"
    path.write_text(qvfile.emit(complete_quiver(10)))
    assert cli.main(["construct", str(path), "--target", "9", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gldim"] == 9
    assert payload["certificate"]["kind"] == "cycle-chain"


def test_construct_on_a_long_line(tmp_path, capsys):
    path = tmp_path / "line.qv"
    path.write_text(qvfile.emit(linear_quiver(1000)))
    assert cli.main(["construct", str(path), "--target", "999", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gldim"] == 999
    assert payload["certificate"]["kind"] == "line-chain"


# -- every input gets an exit code --------------------------------------------

NUMBERS = st.one_of(
    st.integers(0, 5).map(str),
    st.integers(10**5 + 1, 10**40).map(str),
    st.sampled_from(["9" * 5000, "-1", "+1", "1_0", "x", "\u0663", "007"]),
)
IDS = st.sampled_from(["a", "b", "c", "d", "x_1", "bad-id", "\u00e9", "0"])


@st.composite
def qv1_texts(draw):
    """A QV1 stream: a small quiver with relation walks up to 40 arrows
    long, clean or with stray tokens, huge numbers and bad ids mixed in."""
    n = draw(st.integers(1, 4))
    size = st.integers(1, n).map(str)
    dirty = draw(st.booleans())
    number = st.one_of(size, NUMBERS) if dirty else size
    ids = IDS if dirty else st.sampled_from("abcdefg")
    lines = [f"quiver {draw(number)}"]
    arrows = []
    for aid in draw(st.lists(ids, max_size=6, unique=True)):
        source, target = draw(number), draw(number)
        lines.append(f"arrow {aid} {source} {target}")
        arrows.append((aid, source, target))
    lines.append("relations")
    for _ in range(draw(st.integers(0, 5))):
        word = []
        if arrows:
            aid, _, at = draw(st.sampled_from(arrows))
            word.append(aid)
            for _ in range(draw(st.integers(int(not dirty), 40))):
                outs = [a for a in arrows if a[1] == at]
                if not outs:
                    break
                aid, _, at = draw(st.sampled_from(outs))
                word.append(aid)
        if dirty or len(word) >= 2:
            lines.append(" ".join(["rel"] + word + draw(st.lists(ids, max_size=int(dirty)))))
    noise = st.one_of(NUMBERS, IDS, st.sampled_from(["quiver", "arrow", "rel", "relations", "#"]))
    for _ in range(draw(st.integers(0, 2)) if dirty else 0):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, " ".join(draw(st.lists(noise, min_size=1, max_size=4))))
    return "\n".join(lines) + "\n"


MODULES = st.builds(
    lambda kind, i: f"{kind}:{i}",
    st.sampled_from(["S", "P", "Delta", "Gamma", "M", "Q"]),
    st.one_of(st.integers(1, 4).map(str), NUMBERS),
)
ARGV = st.one_of(
    st.just(["gldim"]),
    st.just(["corollary"]),
    st.just(["check-sqh"]),
    st.builds(lambda m: ["resolve", "--module", m], MODULES),
    st.builds(lambda m, d: ["resolve", "--module", m, "--max-deg", d], MODULES,
              st.sampled_from(["0", "3", "12", "-1", "10001", "9" * 30])),
    st.builds(lambda t: ["construct", "--target", t], st.sampled_from(["0", "1", "2", "3", "5", "-1"])),
    st.builds(lambda c, f: [c, "--field", f], st.sampled_from(["verify", "oracle-check"]),
              st.sampled_from(["2", "3", "101", "4", "0"])),
    st.sampled_from([["verify"], ["oracle-check"], ["verify", "--max-deg", "2"]]),
    st.builds(lambda m: ["render", "--module", m], MODULES),
)


@settings(max_examples=300, deadline=None)
@given(text=qv1_texts(), argv=ARGV, as_json=st.booleans())
def test_every_input_gets_an_exit_code(text, argv, as_json):
    """Under small oracle and basis caps, ``main`` answers every QV1 stream
    and command with exit code 0, 1 or 2 and lets no exception escape."""
    if as_json and argv[0] != "render":
        argv = argv + ["--json"]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "MAX_ENTRIES", 400)
        mp.setattr(qd.algebra, "MAX_BASIS_PATHS", 60)
        path = os.path.join(tmp, "fuzz.qv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv[:1] + [path] + argv[1:])
    event(f"{argv[0]} exits {code}")
    assert code in (0, 1, 2)
