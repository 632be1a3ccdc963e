from __future__ import annotations

import io
import json

import pytest

from lpcoset.cli import EXIT_INPUT, EXIT_OK, EXIT_PARSE, EXIT_RESOURCE, main


def run_cli(*argv, env=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if env and monkeypatch:
        for key, value in env.items():
            monkeypatch.setenv(key, value)
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


BAS_U = ("--subgroup", "a^3,b,a*b*a")


class TestIndexCommand:
    def test_basilica_example(self):
        code, out, err = run_cli("index", "builtin:basilica", *BAS_U, "-v")
        assert code == EXIT_OK
        assert "index: 3" in out
        assert "reduction-pair i=1 j=3" in err

    def test_whole_group(self):
        code, out, _ = run_cli("index", "builtin:basilica", "--subgroup", "a, b")
        assert code == EXIT_OK
        assert "index: 1" in out

    def test_grigorchuk_index_two(self):
        code, out, _ = run_cli(
            "index", "builtin:grigorchuk", "--subgroup", "b,c,d,a*b*a,a*c*a,a*d*a"
        )
        assert code == EXIT_OK
        assert "index: 2" in out

    def test_burnside_trivial_subgroup(self):
        code, out, _ = run_cli("index", "builtin:burnside(1,3)", "--subgroup", "")
        assert code == EXIT_OK
        assert "index: 3" in out

    def test_csv_format(self):
        code, out, _ = run_cli("index", "builtin:basilica", *BAS_U, "--format", "csv")
        assert code == EXIT_OK
        assert "index,3" in out.splitlines()

    def test_file_input(self, tmp_path):
        path = tmp_path / "bas.lp"
        path.write_text(
            "generators: a b\n"
            "endomorphism sigma: a -> b^2, b -> a\n"
            "iterated: [a,a^b]\n"
        )
        code, out, _ = run_cli("index", str(path), *BAS_U)
        assert code == EXIT_OK
        assert "index: 3" in out


class TestMemberCommand:
    def test_member_true(self):
        code, out, _ = run_cli(
            "member", "builtin:basilica", *BAS_U, "--word", "b^2*a^3"
        )
        assert code == EXIT_OK
        assert "member: true" in out

    def test_member_false(self):
        code, out, _ = run_cli("member", "builtin:basilica", *BAS_U, "--word", "a")
        assert code == EXIT_OK
        assert "member: false" in out

    def test_subgroup_generator_is_member(self):
        code, out, _ = run_cli("member", "builtin:basilica", *BAS_U, "--word", "a*b*a")
        assert code == EXIT_OK
        assert "member: true" in out


class TestCoreAndIntersect:
    def test_core_index_six(self):
        code, out, _ = run_cli("core", "builtin:basilica", *BAS_U)
        assert code == EXIT_OK
        assert "index: 6" in out

    def test_intersect_with_self(self):
        code, out, _ = run_cli(
            "intersect", "builtin:basilica", *BAS_U, "--subgroup2", "a^3,b,a*b*a"
        )
        assert code == EXIT_OK
        assert "index: 3" in out

    def test_intersect_with_core(self):
        code, out, _ = run_cli(
            "intersect",
            "builtin:basilica",
            *BAS_U,
            "--subgroup2",
            "b^2,a^3,a^2*b*a^-1*b^-1,a*b*a*b^-1,a*b^2*a^-1,b*a^2*b^-1*a^-1,b*a*b*a^-2",
        )
        assert code == EXIT_OK
        assert "index: 6" in out


class TestLowIndexCommand:
    def test_basilica_table_output(self):
        code, out, _ = run_cli(
            "low-index", "builtin:basilica", "--max-index", "3", "--normal", "--maximal"
        )
        assert code == EXIT_OK
        expected = (
            "index  subgroups  normal  maximal\n"
            "    1          1       1        -\n"
            "    2          3       3        3\n"
            "    3          7       4        7\n"
        )
        assert out == expected

    def test_max_index_one(self):
        code, out, _ = run_cli("low-index", "builtin:basilica", "--max-index", "1")
        assert code == EXIT_OK
        assert out.splitlines()[1].split() == ["1", "1"]

    def test_listing(self):
        code, out, _ = run_cli(
            "low-index", "builtin:basilica", "--max-index", "2", "--list"
        )
        assert code == EXIT_OK
        assert out.count("index 2") == 3

    def test_json_round_trips_through_validate(self, tmp_path):
        code, out, _ = run_cli(
            "low-index", "builtin:basilica", "--max-index", "2", "--format", "json",
            "--list",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        for i, entry in enumerate(payload["subgroups"]):
            dump = tmp_path / f"sub{i}.dump"
            dump.write_text(
                "\n".join(
                    "\t".join(str(row[2 * g]) for g in range(2))
                    + "\t"
                    + "\t".join(str(row[2 * g + 1]) for g in range(2))
                    for row in entry["table"]
                )
                + "\n"
            )
            code, out2, _ = run_cli(
                "validate", "builtin:basilica", "--table", str(dump)
            )
            assert code == EXIT_OK
            assert "verdict: valid" in out2

    def test_json_normal_and_maximal_counts_with_list(self):
        code, out, _ = run_cli(
            "low-index", "builtin:basilica", "--max-index", "3", "--format", "json",
            "--normal", "--maximal", "--list",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["normal_counts"] == {"1": 1, "2": 3, "3": 4}
        assert payload["maximal_counts"] == {"1": 0, "2": 3, "3": 7}
        assert sum(e["normal"] for e in payload["subgroups"]) == 8

    def test_deterministic_output(self):
        first = run_cli("low-index", "builtin:basilica", "--max-index", "4", "--normal")
        second = run_cli("low-index", "builtin:basilica", "--max-index", "4", "--normal")
        assert first == second


    def test_verbose_traces_the_whole_job(self):
        code, _, err = run_cli(
            "low-index", "builtin:basilica", "--max-index", "4", "--level", "0", "-v"
        )
        assert code == EXIT_OK
        kinds = {line.split()[0] for line in err.splitlines()}
        assert {"validity", "fold", "low-index-classes"} <= kinds

    def test_zero_candidate_cap_stops_at_once(self):
        code, _, err = run_cli(
            "low-index", "builtin:basilica", "--max-index", "3", "--max-tables", "0"
        )
        assert code == EXIT_RESOURCE
        assert "stopped after 0 candidate tables" in err

    def test_negative_candidate_cap_is_input_error(self):
        code, _, err = run_cli(
            "low-index", "builtin:basilica", "--max-index", "3", "--max-tables", "-1"
        )
        assert code == EXIT_INPUT
        assert "max_tables must be >= 0" in err


class TestValidateCommand:
    def test_valid_dump(self, tmp_path):
        code, out, _ = run_cli("index", "builtin:basilica", *BAS_U, "--format", "json")
        table = json.loads(out)["table"]
        dump = tmp_path / "t.dump"
        dump.write_text(
            "\n".join(
                "\t".join(str(row[2 * g]) for g in range(2))
                + "\t"
                + "\t".join(str(row[2 * g + 1]) for g in range(2))
                for row in table
            )
            + "\n"
        )
        code, out, _ = run_cli("validate", "builtin:basilica", "--table", str(dump))
        assert code == EXIT_OK
        assert "verdict: valid" in out

    def test_invalid_dump_prints_witness(self, tmp_path):
        # transitive degree-6 representation of the level-0 cover whose
        # substituted relator survives; validity must fail at sigma
        from lpcoset import Permutation, PermutationRep, basilica, dump_table
        from lpcoset.coset_enum import table_from_rep

        bas = basilica()
        rep = PermutationRep(
            bas.alphabet,
            6,
            (
                Permutation.from_cycles(6, [(1, 2), (3, 4)]),
                Permutation.from_cycles(6, [(1, 3, 5), (2, 4, 6)]),
            ),
        )
        dump = tmp_path / "bad.dump"
        dump.write_text(dump_table(table_from_rep(rep)))
        code, out, _ = run_cli("validate", "builtin:basilica", "--table", str(dump))
        assert code == EXIT_OK
        assert "verdict: invalid" in out
        assert "endomorphism: sigma" in out
        assert "relator:" in out and "coset:" in out

    def test_dump_violating_fixed_relator_is_input_error(self, tmp_path):
        # a -> (1,2,3) breaks the relator a^2 in the Grigorchuk presentation
        dump = tmp_path / "q.dump"
        rows = []
        a = {1: 2, 2: 3, 3: 1}
        ainv = {v: k for k, v in a.items()}
        for c in (1, 2, 3):
            rows.append(
                "\t".join(map(str, [a[c], c, c, c, ainv[c], c, c, c]))
            )
        dump.write_text("\n".join(rows) + "\n")
        code, _, err = run_cli("validate", "builtin:grigorchuk", "--table", str(dump))
        assert code == EXIT_INPUT
        assert "a^2" in err

    def test_inconsistent_dump_is_parse_error(self, tmp_path):
        dump = tmp_path / "broken.dump"
        dump.write_text("2\t1\t1\t1\n2\t2\t2\t2\n")
        code, _, err = run_cli("validate", "builtin:basilica", "--table", str(dump))
        assert code == EXIT_PARSE

    def test_missing_dump_file(self):
        code, _, _ = run_cli("validate", "builtin:basilica", "--table", "/nonexistent")
        assert code == EXIT_PARSE


class TestErrorPaths:
    def test_unknown_builtin(self):
        code, _, err = run_cli("index", "builtin:nope", "--subgroup", "")
        assert code == EXIT_PARSE

    def test_bad_word(self):
        code, _, err = run_cli("index", "builtin:basilica", "--subgroup", "a^3, q")
        assert code == EXIT_PARSE
        assert "unknown generator" in err

    def test_missing_file(self):
        code, _, _ = run_cli("index", "/no/such/file.lp", "--subgroup", "")
        assert code == EXIT_PARSE

    def test_resource_ceiling(self):
        code, _, err = run_cli(
            "index",
            "builtin:burnside(1,3)",
            "--subgroup",
            "",
            "--max-cosets",
            "100",
            "--hard-ceiling",
            "100",
        )
        assert code == EXIT_RESOURCE

    def test_hard_ceiling_alone_bounds_the_first_attempt(self):
        code, _, err = run_cli(
            "index", "builtin:basilica", "--subgroup", "a^2,b", "--hard-ceiling", "100", "-v"
        )
        assert code == EXIT_RESOURCE
        assert "tc-overflow level=0 max_cosets=100" in err
        assert "no closed table within 100 cosets at level 0" in err

    def test_gives_up_at_a_real_ceiling(self):
        # <b,c,d> has infinite index in the Grigorchuk group: the attempts at
        # 2^8 and 2^12 cosets overflow, and level 2 overflows the ceiling
        code, _, err = run_cli(
            "index", "builtin:grigorchuk", "--subgroup", "b,c,d", "--hard-ceiling", "65536"
        )
        assert code == EXIT_RESOURCE
        assert "no closed table within 65536 cosets at level 2" in err

    def test_env_var_ceiling(self, monkeypatch):
        code, _, _ = run_cli(
            "index",
            "builtin:burnside(1,3)",
            "--subgroup",
            "",
            "--max-cosets",
            "100",
            env={"LPCOSET_HARD_CEILING": "100"},
            monkeypatch=monkeypatch,
        )
        assert code == EXIT_RESOURCE

    def test_non_integer_env_var_ceiling(self, monkeypatch):
        code, _, err = run_cli(
            "index",
            "builtin:basilica",
            *BAS_U,
            env={"LPCOSET_HARD_CEILING": "abc"},
            monkeypatch=monkeypatch,
        )
        assert code == EXIT_PARSE
        assert "LPCOSET_HARD_CEILING" in err

    def test_flag_overrides_env(self, monkeypatch):
        code, out, _ = run_cli(
            "index",
            "builtin:burnside(1,3)",
            "--subgroup",
            "",
            "--max-cosets",
            "100",
            "--hard-ceiling",
            "1000000",
            env={"LPCOSET_HARD_CEILING": "100"},
            monkeypatch=monkeypatch,
        )
        assert code == EXIT_OK
        assert "index: 3" in out

    def test_bad_format_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["index", "builtin:basilica", "--subgroup", "", "--format", "yaml"])


class TestConsoleScript:
    def test_installed_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "lpcoset.cli", "index", "builtin:basilica", *BAS_U],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "index: 3" in proc.stdout
