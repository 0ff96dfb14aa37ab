"""Exit codes, formats, and pipelines of the command-line interface."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symdesign import cli
from symdesign.cli import main
from symdesign.perm import PermGroup

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = SRC / "symdesign" / "data"
TABLES = Path(__file__).resolve().parents[1] / "tables"

FANO_JSON = ('{"v": 7, "blocks": [[1,2,3],[1,4,5],[1,6,7],[2,4,6],'
             '[2,5,7],[3,4,7],[3,5,6]]}')
C7_GENS = "degree 7\n(1,2,3,4,5,6,7)\n"
S7_GENS = "degree 7\n(1,2)\n(1,2,3,4,5,6,7)\n"
C2CUBE_GENS = ("degree 8\n(1,2)(3,4)(5,6)(7,8)\n(1,3)(2,4)(5,7)(6,8)\n"
               "(1,5)(2,6)(3,7)(4,8)\n")


@pytest.fixture()
def fano_file(tmp_path):
    path = tmp_path / "fano.json"
    path.write_text(FANO_JSON)
    return str(path)


def run_cli(*args, env=None, **kwargs):
    """The CLI in a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "symdesign.cli", *args], env=env, **kwargs)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestTopLevel:
    def test_version_prints_package_and_checksums(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("symdesign ")
        names = {line.split()[-1] for line in out.splitlines()[1:]}
        assert names == {"d64_generators.txt"}

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # records are NamedTuples; -S keeps site's own imports out of the count
        code = ("import sys; sys.path.insert(0, %r); import symdesign.cli; "
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))" % str(SRC))
        done = subprocess.run([sys.executable, "-S", "-c", code],
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2


class TestParserReuse:
    """main builds its parser once per process, and reusing it changes no answer."""

    # usage failures inside and after argparse, the top-level flags, help
    # texts and valid commands, interleaved
    ARGVS = (["frobnicate"], [], ["--version"], ["enumerate", "--vmax", "-1"],
             ["construct", "fano"], ["enumerate", "--table", "table9"],
             ["claims", "fano"], ["enumerate", "--symmetric", "--format", "csv"],
             ["diffset"], ["--help"], ["claims", "fano", "--format", "json"],
             ["construct", "--help"], ["enumerate", "--table", "table5"])
    CODES = [2, 2, 0, 2, 0, 2, 0, 0, 2, 0, 0, 0, 0]

    @staticmethod
    def outcome(argv, capsys):
        try:
            code = main(list(argv))
        except SystemExit as exit:
            code = exit.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_one_parser_answers_as_fresh_ones(self, capsys, monkeypatch):
        cli.build_parser.cache_clear()
        shared = [self.outcome(argv, capsys) for argv in self.ARGVS * 2]
        assert cli.build_parser.cache_info().misses == 1
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [self.outcome(argv, capsys) for argv in self.ARGVS * 2]
        assert shared == fresh
        assert [code for code, _, _ in shared] == self.CODES * 2


@pytest.mark.parametrize("name", ["pg5_2_hyperplanes", "pg5_2_complement", "d64-1"])
def test_construct_builds_no_stabilizer_chain(name, capsys, monkeypatch):
    """construct only develops a block under the generators: no chain is built."""
    steps = []
    for method in ("_build_chain", "_verify_level"):
        real = getattr(PermGroup, method)
        monkeypatch.setattr(PermGroup, method, lambda self, *args, real=real:
                            steps.append(real.__name__) or real(self, *args))
    assert main(["construct", name]) == 0
    assert capsys.readouterr().out.startswith('{"v":63,' if "pg5" in name else '{"v":64,')
    assert steps == []


class TestVerify:
    def test_fano_verifies(self, capsys, fano_file):
        assert main(["verify", fano_file]) == 0
        assert "2-(7,3,1)" in capsys.readouterr().out

    def test_json_format(self, capsys, fano_file):
        assert main(["verify", fano_file, "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record == {"v": 7, "b": 7, "k": 3, "r": 3, "lambda": 1,
                          "symmetric": True}

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(FANO_JSON))
        assert main(["verify", "-"]) == 0
        assert "2-(7,3,1)" in capsys.readouterr().out

    def test_unbalanced_design_exits_one(self, capsys, tmp_path):
        path = write(tmp_path, "bad.json",
                     '{"v": 4, "blocks": [[1,2],[1,3]]}')
        assert main(["verify", path]) == 1
        assert "not a 2-design" in capsys.readouterr().out

    def test_malformed_file_is_usage_error(self, capsys, tmp_path):
        path = write(tmp_path, "junk.json", "{not json")
        assert main(["verify", path]) == 2
        assert main(["verify", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("text", [
        '{"v": "7", "blocks": [[1,2,4]]}',
        '{"v": 7, "blocks": [[1,2.0,4]]}',
        '{"v": 7, "blocks": "abc"}',
        '{"v": 7, "blocks": [[true,2,4]]}',
        '{"v": 101, "blocks": [[%s]]}' % ",".join(str(x) for x in range(1, 102)),
        pytest.param('{"v": 3, "blocks": %s}' % ("[" * 100_000 + "]" * 100_000),
                     id="nested-100000-deep"),
    ])
    def test_ill_typed_design_is_usage_error(self, capsys, tmp_path, text):
        assert main(["verify", write(tmp_path, "typed.json", text)]) == 2
        assert "not a design file" in capsys.readouterr().err


class TestIsoAndAut:
    def test_fano_aut_order(self, capsys, fano_file):
        assert main(["aut", fano_file, "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["order"] == 168
        assert record["generators"]

    def test_iso_of_relabeled_copy(self, capsys, fano_file, tmp_path):
        relabeled = ('{"v": 7, "blocks": [[7,6,5],[7,4,3],[7,2,1],[6,4,2],'
                     '[6,3,1],[5,4,1],[5,3,2]]}')
        other = write(tmp_path, "relabeled.json", relabeled)
        assert main(["iso", fano_file, other]) == 0
        assert "isomorphic" in capsys.readouterr().out

    def test_non_isomorphic_designs_exit_one(self, capsys, tmp_path):
        d1 = write(tmp_path, "d1.json", FANO_JSON)
        assert main(["construct", "ag3_2_planes", "--out",
                     str(tmp_path / "ag.json")]) == 0
        assert main(["iso", d1, str(tmp_path / "ag.json"),
                     "--format", "json"]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record == {"isomorphic": False, "mapping": None}

    def test_blockless_structure(self, capsys, tmp_path):
        empty = write(tmp_path, "empty.json", '{"v": 5, "blocks": []}')
        assert main(["aut", empty]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "order 120"
        assert main(["iso", empty, empty]) == 0


class TestDecompose:
    def test_d64_row(self, capsys, tmp_path):
        design = str(tmp_path / "d64.json")
        assert main(["construct", "d64-1", "--out", design]) == 0
        gens = str(DATA / "d64_generators.txt")
        assert main(["decompose", design, gens]) == 0
        assert capsys.readouterr().out.strip() == \
            "8 4 3 7 14 4 | 8 7 6 7 8 | 8"
        assert main(["decompose", design, gens, "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["k0"] == 4 and record["k1"] == 7 and record["mu"] == 8

    def test_missing_lambda0_prints_dash(self, capsys, monkeypatch, tmp_path):
        # lambda0 is absent in the k0 = v0 - 1 >= 3 case; no catalog design
        # has it, so the d64 decomposition stands in with lambda0 cleared
        from symdesign import cli
        real = cli.decompose
        monkeypatch.setattr(cli, "decompose",
                            lambda *args: real(*args)._replace(lambda0=None))
        design = str(tmp_path / "d64.json")
        assert main(["construct", "d64-1", "--out", design]) == 0
        gens = str(DATA / "d64_generators.txt")
        assert main(["decompose", design, gens]) == 0
        assert capsys.readouterr().out.strip() == \
            "8 4 - 7 14 4 | 8 7 6 7 8 | 8"
        assert main(["decompose", design, gens, "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == \
            "8,4,-,7,14,4,8,7,6,7,8,8"

    def test_primitive_group_exits_one(self, capsys, fano_file, tmp_path):
        gens = write(tmp_path, "s7.gens", S7_GENS)
        assert main(["decompose", fano_file, gens]) == 1
        assert "primitive" in capsys.readouterr().out

    def test_system_index_out_of_range(self, capsys, tmp_path):
        design = str(tmp_path / "d64.json")
        main(["construct", "d64-1", "--out", design])
        gens = str(DATA / "d64_generators.txt")
        assert main(["decompose", design, gens, "--system", "99"]) == 2


# sha256 of [exit code, stdout, stderr] of `enumerate --vmax V` in the table,
# csv and json formats, for the merged listing and each --table, recorded
# before the tables were written through one cell rule and one CSV writer
ENUMERATE_SHA256 = {
    (100, None): (
        "2b4d4437d5eaff75a862ea98892f9f7e0e1177b6cfaca4a9ca31b8a516e0406e",
        "9f5a085ab8fce213b3127603c3205b831470d8698b4b846a42b4a5a2d3f608ef",
        "8709baec77f690b56d79273c3dfd47e04428f07d6014ad6f9b1983552d86ecf7"),
    (100, 'table2'): (
        "070b8feb853adde1efe204bc76e26905ac02de4ebbd6e69e3deeb7594a4f98e0",
        "edc8df9680616e115a383695ae28e68caf5451ca34d8595193bb74d20f1867c4",
        "614c14d8f8611e9460a63c9dae7a1e7b39cfbd78c921b1a346d6bfd7f5a88015"),
    (100, 'table3'): (
        "2924cc696493c5f69d5997dd6dc5a6dbf70ecd709efb7fbebb04d2fd0511ee92",
        "b0d609f95d5ec2c313a31220c10c8ef342a77bcb7e42d8bdcb94965527e961ed",
        "1a29447200aa3f5a44e8bd848d547c140c06b6a6ee82238ec3ffa9b08b9ed189"),
    (100, 'table4'): (
        "683d03d401873adf6cbb25dab70ab6d24ad2b859ce7828ef8b6a225a299f3682",
        "dccfb08c39f48c4d583608ba192d77e8f38eff714860acbedf0648b970339f9f",
        "cac8f6a2a6d0b66fd3a7c062f60871ed4f56855f213224f61809a60db991b5d0"),
    (100, 'table5'): (
        "b06e7af4ecf1ff9fbf8a9020e8bcbac26138fc188bb1bfbe928334327215827c",
        "da11400524593db26cb8b7bcc9b8a96edfc2dfd0f1b3f235421d985c3d02aeaa",
        "4ebbbfd30ff2b7519b3fcd0a4f2ebb4fd42a25e1b959ab256a7ac92a186697a5"),
    (64, None): (
        "a36c0c4b2a43dee6d34ea135763c53ff4789f097f205a5be025b5722b8e80680",
        "ac0a80731698dd9f515e328207b97537d32be7c3f4d0d7cac490e64149e36c1b",
        "0ad63bb120f4da72280ab1dcc0a5b977da1d35814245e89dce32a229253ab69a"),
    (64, 'table2'): (
        "ef00cc921f8565bfc04331ffdd08d580930411d268d14b09f9e756361e40236f",
        "96f237809dd6802518ad6c7bbeaaacc3b7588ff554291a8a48b3fd52ff55f4b0",
        "2e28872d443c8f9953636f034c8935837bb5e58d0172ae2c25cfe155a805547b"),
    (64, 'table3'): (
        "22083b6f94d841a427c0392160ae28a2c3635664a8bd074d2fc029621826c763",
        "94795d0800abcf45a59f6788941c623b0a70ce7f54b802f531e8263019ce1c79",
        "3bee8bd408b057af1b8e286b58e55faac8660a477ee29377011398dc4dfad505"),
    (64, 'table4'): (
        "2e42408f11224a3c22c906188d06ef6dcabdbbe6b1b91ed6a02000411cdc661a",
        "929165fbac04c52bc033680b2d09631addfa01a1843fc5f38a2dd96f8c1ac4ef",
        "e87a70feb484da9c6bfb4b43243fe48277979c9d53e2d6428715e070260e42d7"),
    (64, 'table5'): (
        "cdc7788a81d44b463788f299d90c4a3081f899cd9841b036cde706162bb7a2c4",
        "d8ff18b6fb02f7d1dc789c2c28da0a984e40358ca7977286dd75f58177b1f57f",
        "6c56183d61ccd97cdce0ec9411f167543980127aa7b78439f4c727ac65e1f9d2"),
}


class TestEnumerate:
    def test_symmetric_csv_matches_golden_file(self, capsys):
        assert main(["enumerate", "--symmetric", "--format", "csv"]) == 0
        assert capsys.readouterr().out == (TABLES / "table5.csv").read_text()

    def test_each_table_matches_its_golden_file(self, capsys):
        for name in ("table2", "table3", "table4", "table5"):
            assert main(["enumerate", "--table", name, "--format", "csv"]) == 0
            got = capsys.readouterr().out
            assert got == (TABLES / ("%s.csv" % name)).read_text()

    def test_symmetric_json_has_sixteen_rows(self, capsys):
        assert main(["enumerate", "--symmetric", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 16
        assert {"v", "k", "lambda"} <= set(rows[0])

    def test_default_listing_merges_all_branches(self, capsys):
        assert main(["enumerate"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 1 + 33 + 32 + 12

    def test_flag_conflict_is_usage_error(self, capsys):
        assert main(["enumerate", "--symmetric", "--table", "table2"]) == 2

    @pytest.mark.parametrize("vmax,table", list(ENUMERATE_SHA256))
    def test_outputs_are_pinned(self, vmax, table, capsys):
        got = []
        for fmt in ("table", "csv", "json"):
            argv = ["enumerate", "--vmax", str(vmax), "--format", fmt]
            code = main(argv + (["--table", table] if table else []))
            captured = capsys.readouterr()
            record = json.dumps([code, captured.out, captured.err])
            got.append(hashlib.sha256(record.encode()).hexdigest())
        assert tuple(got) == ENUMERATE_SHA256[(vmax, table)]


class TestConstructAndClaims:
    def test_construct_writes_verifiable_design(self, capsys, tmp_path):
        out = str(tmp_path / "pg.json")
        assert main(["construct", "pg2_3", "--out", out]) == 0
        assert main(["verify", out]) == 0
        assert "2-(13,4,1)" in capsys.readouterr().out

    @pytest.mark.parametrize("out", ["missing/fano.json", "."])
    def test_construct_unwritable_out_is_a_usage_error(self, capsys, tmp_path, out):
        """A missing directory or a directory as --out exits 2, not 3."""
        assert main(["construct", "fano", "--out", str(tmp_path / out)]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_construct_unknown_name(self, capsys):
        assert main(["construct", "petersen"]) == 2
        assert "available" in capsys.readouterr().err

    def test_construct_too_many_blocks_is_a_usage_error(self, capsys):
        """complete(40,20) would have 137,846,528,820 blocks; it is refused
        as out of range instead of running out of memory."""
        assert main(["construct", "complete(40,20)"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "out of range: complete(40,20) has more than 200000 blocks" in captured.err

    def test_claims_report(self, capsys):
        assert main(["claims", "fano"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert main(["claims", "ag2_3", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(item["ok"] for item in report)


class TestDiffset:
    def test_check_accepts_planar_difference_set(self, capsys, tmp_path):
        gens = write(tmp_path, "c7.gens", C7_GENS)
        assert main(["diffset", "check", gens, "1,2,4", "--lambda", "1"]) == 0
        assert "difference set" in capsys.readouterr().out

    def test_check_rejects_with_witness(self, capsys, tmp_path):
        gens = write(tmp_path, "c7.gens", C7_GENS)
        assert main(["diffset", "check", gens, "1,2,3", "--lambda", "1"]) == 1
        assert "representations" in capsys.readouterr().out

    def test_develop_then_verify(self, capsys, tmp_path, monkeypatch):
        gens = write(tmp_path, "c7.gens", C7_GENS)
        assert main(["diffset", "develop", gens, "1,2,4"]) == 0
        design_text = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(design_text))
        assert main(["verify", "-"]) == 0
        assert "2-(7,3,1)" in capsys.readouterr().out

    def test_subset_validation(self, capsys, tmp_path):
        gens = write(tmp_path, "c7.gens", C7_GENS)
        assert main(["diffset", "check", gens, "1,2,9", "--lambda", "1"]) == 2
        assert main(["diffset", "check", gens, "1,1,2", "--lambda", "1"]) == 2
        assert main(["diffset", "check", gens, "", "--lambda", "1"]) == 2

    def test_blank_subset_is_empty_not_a_directory(self, capsys, tmp_path):
        gens = write(tmp_path, "c7.gens", C7_GENS)
        for blank in ("", " "):
            assert main(["diffset", "check", gens, blank, "--lambda", "1"]) == 2
            assert "subset is empty" in capsys.readouterr().err

    def test_subset_from_file(self, capsys, tmp_path):
        gens = write(tmp_path, "c7.gens", C7_GENS)
        subset = write(tmp_path, "subset.txt", "1 2 4\n")
        assert main(["diffset", "check", gens, subset, "--lambda", "1"]) == 0

    def test_regular_search_finds_translations(self, capsys, tmp_path):
        gens = write(tmp_path, "cube.gens", C2CUBE_GENS)
        assert main(["diffset", "regular", gens, "--limit", "1"]) == 0
        assert "order 8" in capsys.readouterr().out

    def test_regular_limit_must_be_positive(self, capsys, tmp_path):
        gens = write(tmp_path, "c7.gens", C7_GENS)
        assert main(["diffset", "regular", gens, "--limit", "0"]) == 2
        assert "limit must be positive" in capsys.readouterr().err

    def test_regular_on_intransitive_group(self, capsys, tmp_path):
        gens = write(tmp_path, "fix.gens", "degree 4\n(1,2)\n")
        assert main(["diffset", "regular", gens]) == 2

    def test_generator_file_above_scope_is_usage_error(self, capsys, tmp_path):
        cycle = "(%s)" % ",".join(str(x) for x in range(1, 102))
        gens = write(tmp_path, "c101.gens", "degree 101\n%s\n" % cycle)
        assert main(["diffset", "regular", gens]) == 2
        assert "not a generator file" in capsys.readouterr().err

    def test_regular_budget_exhaustion(self, capsys, tmp_path):
        gens = write(tmp_path, "cube.gens", C2CUBE_GENS)
        assert main(["diffset", "regular", gens, "--budget", "0"]) == 4
        assert "budget exhausted" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (["enumerate", "--vmax", "-1"], "vmax"),
        (["diffset", "regular", "GENS", "--limit", "-1"], "limit"),
        (["diffset", "regular", "GENS", "--budget", "-1"], "budget"),
        (["diffset", "check", "GENS", "1,2,4", "--lambda", "-1"], "lambda"),
    ])
    def test_negative_numbers_are_usage_errors(self, capsys, tmp_path, argv, flag):
        gens = write(tmp_path, "c7.gens", C7_GENS)
        assert main([gens if a == "GENS" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --%s must not be negative\n" % flag

    def test_non_regular_group_rejected_for_check(self, capsys, tmp_path):
        gens = write(tmp_path, "s7.gens", S7_GENS)
        assert main(["diffset", "check", gens, "1,2,4", "--lambda", "1"]) == 2


class TestPipelines:
    """The documented shell pipelines, run through real processes."""

    def test_construct_pipe_verify(self):
        construct = run_cli("construct", "d64-1", capture_output=True, text=True,
                            check=True)
        verify = run_cli("verify", "-", input=construct.stdout, capture_output=True,
                         text=True)
        assert verify.returncode == 0
        assert "2-(64,28,12)" in verify.stdout

    def test_iso_of_the_two_developments_exits_one(self, tmp_path):
        for h in ("1", "2"):
            run_cli("construct", "d64-%s" % h, "--out", str(tmp_path / ("d%s.json" % h)),
                    check=True)
        result = run_cli("iso", str(tmp_path / "d1.json"), str(tmp_path / "d2.json"),
                         capture_output=True, text=True)
        assert result.returncode == 1
        assert "non-isomorphic" in result.stdout

    def test_searches_print_the_same_bytes_under_any_hash_seed(self, tmp_path):
        """The automorphism search on d64-1 and the exhaustive isomorphism
        search of s-minus-3 against d64-2 read no set or dict order that
        string hashing could change."""
        for name in ("d64-1", "d64-2", "s-minus-3"):
            assert main(["construct", name, "--out", str(tmp_path / (name + ".json"))]) == 0
        runs = {}
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            runs[seed] = [run_cli(*args, env=env, capture_output=True)
                          for args in (["aut", str(tmp_path / "d64-1.json")],
                                       ["iso", str(tmp_path / "s-minus-3.json"),
                                        str(tmp_path / "d64-2.json")])]
        aut, iso = runs["0"]
        assert (aut.returncode, iso.returncode) == (0, 1)
        assert aut.stdout.startswith(b"order 43008\n") and iso.stdout == b"non-isomorphic\n"
        assert [(r.returncode, r.stdout) for r in runs["0"]] == \
            [(r.returncode, r.stdout) for r in runs["4242"]]


# Malformed input: 0, negative, out-of-range and repeated points, empty blocks
# and blockless designs, bad degrees.  Half the draws stay in range, so the
# searches behind aut, iso, decompose and regular run too.
WILD_POINTS = st.integers(min_value=-2, max_value=10)


@st.composite
def design_texts(draw):
    v = draw(st.integers(min_value=-1, max_value=8))
    if v >= 1 and draw(st.booleans()):
        block = st.lists(st.integers(1, v), min_size=1, max_size=v, unique=True)
    else:
        block = st.lists(WILD_POINTS, max_size=9)
    return json.dumps({"v": v, "blocks": draw(st.lists(block, max_size=6))})


@st.composite
def generator_texts(draw):
    degree = draw(st.integers(min_value=-1, max_value=8))
    if degree >= 1 and draw(st.booleans()):
        cycle = st.lists(st.integers(1, degree), max_size=degree, unique=True)
        # sometimes the regular cyclic group, so diffset check and develop run
        regular = st.just([[list(range(1, degree + 1))]])
        gens = draw(regular | st.lists(st.lists(cycle, max_size=3), max_size=3))
    else:
        cycle = st.lists(WILD_POINTS, max_size=5)
        gens = draw(st.lists(st.lists(cycle, max_size=3), max_size=3))
    lines = ["degree %d" % degree]
    lines += ["".join("(%s)" % ",".join(map(str, c)) for c in g) for g in gens]
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_input_never_exits_internal(tmp_path, data):
    d1 = write(tmp_path, "d1.json", data.draw(design_texts()))
    d2 = write(tmp_path, "d2.json", data.draw(design_texts()))
    gens = write(tmp_path, "g.gens", data.draw(generator_texts()))
    points = data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=8, unique=True)
                       | st.lists(WILD_POINTS, max_size=9))
    subset = ",".join(map(str, points))
    number = str(data.draw(st.integers(min_value=-1, max_value=3)))
    argv = data.draw(st.sampled_from([
        ["verify", d1],
        ["aut", d1],
        ["iso", d1, d2],
        ["decompose", d1, gens],
        ["diffset", "check", gens, subset, "--lambda", number],
        ["diffset", "develop", gens, subset],
        ["diffset", "regular", gens, "--limit", number],
        ["diffset", "regular", gens, "--budget", number],
    ]))
    try:
        code = main(argv)
    except SystemExit as err:  # argparse rejects a subset such as "-1,2"
        code = err.code
    assert code != 3, argv


# One defect at a time on top of a well-formed design or generator file:
# text that is not JSON, wrong shapes and types, points out of range or
# repeated, empty blocks, deep nesting; a missing or bad degree line, cycles
# that are unwrapped, unbalanced, non-numeric, out of range or repeated.
# Each must be refused as a usage error.
@st.composite
def broken_design_texts(draw):
    v = draw(st.integers(1, 8))
    blocks = draw(st.lists(st.lists(st.integers(1, v), min_size=1, max_size=v, unique=True),
                           min_size=1, max_size=6))
    i = draw(st.integers(0, len(blocks) - 1))
    j = draw(st.integers(0, len(blocks[i]) - 1))
    junk = st.sampled_from(["2", 2.0, True, None, [2], {}])
    defect = draw(st.sampled_from(
        ["prefix", "top", "key", "v", "v range", "blocks", "point", "point range",
         "repeat", "empty", "nested"]))
    design = {"v": v, "blocks": blocks}
    if defect == "prefix":
        text = json.dumps(design)
        return text[:draw(st.integers(0, len(text) - 1))]
    if defect == "top":
        return json.dumps(draw(st.sampled_from([blocks, v, "design", None, [v, blocks]])))
    if defect == "key":
        del design[draw(st.sampled_from(["v", "blocks"]))]
    elif defect == "v":
        design["v"] = draw(junk)
    elif defect == "v range":
        design["v"] = draw(st.integers(-3, 0) | st.integers(101, 10 ** 6))
    elif defect == "blocks":
        design["blocks"] = draw(st.sampled_from(["abc", 3, {"1": [1]}, None, blocks[i]]))
    elif defect == "point":
        blocks[i][j] = draw(junk)
    elif defect == "point range":
        blocks[i][j] = draw(st.integers(-3, 0) | st.integers(v + 1, v + 5))
    elif defect == "repeat":
        blocks[i].append(blocks[i][j])
    elif defect == "empty":
        blocks.insert(i, [])
    else:
        depth = draw(st.integers(2_000, 100_000))
        return '{"v": %d, "blocks": %s}' % (v, "[" * depth + "]" * depth)
    return json.dumps(design)


@st.composite
def broken_generator_texts(draw):
    n = draw(st.integers(1, 8))
    lines = ["degree %d" % n] + ["(%s)" % ",".join(map(str, p)) for p in draw(
        st.lists(st.permutations(range(1, n + 1)), max_size=3))]
    i = draw(st.integers(1, len(lines)))
    bad_degree = st.sampled_from(["degree", "degree x", "degree 2.5", "deg %d" % n,
                                  "degree %d %d" % (n, n), "degree 0", "degree -1",
                                  "degree 101"])
    bad_cycle = st.sampled_from(["(1,%d)" % (n + 1), "(0,1)", "(-1,1)", "(1,1)",
                                 "(1)(1)", "(1,a)", "(1,,2)", "1,2", "(1,2", "((1,2)"])
    defect = draw(st.sampled_from(["no degree", "degree", "cycle"]))
    if defect == "no degree":
        del lines[0]
    elif defect == "degree":
        lines[0] = draw(bad_degree)
    else:
        lines.insert(i, draw(bad_cycle))
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_files_are_usage_errors(tmp_path, data, capsys):
    good = write(tmp_path, "good.json", FANO_JSON)
    if data.draw(st.booleans()):
        bad = write(tmp_path, "bad.json", data.draw(broken_design_texts()))
        argv = data.draw(st.sampled_from([["verify", bad], ["aut", bad],
                                          ["iso", bad, good], ["iso", good, bad]]))
    else:
        argv = ["diffset", "regular",
                write(tmp_path, "bad.gens", data.draw(broken_generator_texts()))]
    assert main(argv) == 2, argv
    assert capsys.readouterr().err.startswith("error: ")
