from __future__ import annotations

import argparse
import csv
import io
import json
import subprocess
import sys
from unittest import mock

import pytest

import lpcoset.subgroups
from lpcoset import cli, pipeline
from lpcoset.cli import EXIT_INPUT, EXIT_OK, EXIT_PARSE, EXIT_RESOURCE, main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def fresh_cli(*argv):
    """The command in a new interpreter, which builds its own parser."""
    proc = subprocess.run(
        [sys.executable, "-m", "lpcoset.cli", *argv],
        capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


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

    @pytest.mark.stretch
    def test_burnside_24_at_level_four(self):
        # the validity walk keeps 4,096 words and, settled on a1 and a2,
        # runs no kernel test
        code, out, _ = fresh_cli(
            "index", "builtin:burnside(2,4)", "--subgroup", "a1, t", "--level", "4"
        )
        assert code == EXIT_OK
        assert "index: 1024" in out

    @pytest.mark.stretch
    def test_burnside_24_at_level_five(self):
        # level 8 is refused for its size, so the escalation ends at level 7
        # instead of the covering's error; level 5 closes at 2^12 cosets
        code, out, _ = fresh_cli(
            "index", "builtin:burnside(2,4)", "--subgroup", "a1, t", "--level", "5"
        )
        assert code == EXIT_OK
        assert "index: 1024" in out

    @pytest.mark.stretch
    def test_burnside_33_order(self):
        # the trivial subgroup's index is |B(3,3)| = 3^7
        code, out, _ = fresh_cli("index", "builtin:burnside(3,3)", "--subgroup", "1")
        assert code == EXIT_OK
        assert "index: 2187" in out

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

    def test_presentation_without_generators(self, tmp_path):
        path = tmp_path / "trivial.lp"
        path.write_text("generators:\n")
        code, out, err = run_cli("low-index", str(path), "--max-index", "2", "--list")
        assert (code, err) == (EXIT_OK, "")
        assert out == (
            "index  subgroups\n"
            "    1          1\n"
            "    2          0\n"
            "index 1 [normal]: <>\n"
        )

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

    def test_coset_ceiling_caps_the_candidates(self, monkeypatch):
        monkeypatch.setattr(lpcoset.subgroups, "DEFAULT_MAX_COSETS", 400)
        code, out, err = run_cli(
            "low-index", "builtin:burnside(3,2)", "--level", "0", "--max-index", "8"
        )
        assert (code, out) == (EXIT_RESOURCE, "")
        assert err == (
            "error: stopped after 50 candidate tables of up to 8 cosets, "
            "400 rows in all (the coset ceiling)\n"
        )

    def test_a_capped_run_folds_nothing(self, monkeypatch):
        # the command reports the cap and never reads the partial list, so
        # it folds none of the candidates; a library caller that reads it
        # gets the folds
        monkeypatch.setattr(lpcoset.subgroups, "DEFAULT_MAX_COSETS", 400)
        folds = mock.Mock(side_effect=lpcoset.subgroups.fold_to_valid)
        monkeypatch.setattr(lpcoset.subgroups, "fold_to_valid", folds)
        argv = ("low-index", "builtin:burnside(3,2)", "--level", "0", "--max-index", "8")
        code, out, err = run_cli(*argv, "-v")
        assert (code, out) == (EXIT_RESOURCE, "")
        assert folds.call_count == 0
        lines = err.splitlines()
        assert [line.split()[0] for line in lines] == [
            "low-index", "low-index-candidates", "error:"
        ]
        assert lines[-1].startswith("error: stopped after 50 candidate tables")
        with pytest.raises(lpcoset.LowIndexIncomplete) as info:
            lpcoset.low_index(lpcoset.builtin_presentation("burnside(3,2)"), 8, level=0)
        assert folds.call_count == 0
        assert not info.value.partial.complete
        assert folds.call_count > 0

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
        from helpers import table_from_rep

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

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_partial_dump_is_parse_error(self, tmp_path, fmt):
        # a = (1 2) and b fixing coset 2, both ways undefined at coset 1:
        # every defined entry has its mirror
        dump = tmp_path / "partial.dump"
        dump.write_text("2\t0\t2\t0\n1\t2\t1\t2\n")
        assert run_cli(
            "validate", "builtin:basilica", "--table", str(dump), "--format", fmt
        ) == (EXIT_PARSE, "", "error: inconsistent table dump: row 1 has an undefined entry\n")

    def test_missing_dump_file(self):
        code, _, _ = run_cli("validate", "builtin:basilica", "--table", "/nonexistent")
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("text", ["", "# no rows\n\n"])
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_dump_without_rows_is_parse_error(self, tmp_path, text, fmt):
        dump = tmp_path / "empty.dump"
        dump.write_text(text)
        code, out, err = run_cli(
            "validate", "builtin:basilica", "--table", str(dump), "--format", fmt
        )
        assert code == EXIT_PARSE
        assert out == ""
        assert "table dump has no rows" in err

    def test_dump_not_utf8_is_parse_error(self, tmp_path):
        dump = tmp_path / "binary.dump"
        dump.write_bytes(b"\xff")
        code, out, err = run_cli("validate", "builtin:basilica", "--table", str(dump))
        assert code == EXIT_PARSE
        assert out == ""
        assert "cannot read table dump" in err


def _csv_cell(value) -> str:
    """The CSV text of a JSON payload value: a list of words is one
    comma-separated field, a boolean reads true/false."""
    if isinstance(value, list):
        return ", ".join(value)
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


class TestCsvParsesIntoTheJsonPayload:
    """Every CSV line is one record that ``csv.reader`` splits into the
    fields of the JSON payload; a field that holds a comma is quoted."""

    def test_key_value_records(self, tmp_path):
        from lpcoset import Permutation, PermutationRep, basilica, dump_table
        from helpers import table_from_rep

        # a valid degree-3 action and the invalid degree-6 one of
        # TestValidateCommand, whose payload names a witness
        cycles = Permutation.from_cycles
        actions = [
            (3, (cycles(3, [(1, 2, 3)]), cycles(3, [(2, 3)]))),
            (6, (cycles(6, [(1, 2), (3, 4)]), cycles(6, [(1, 3, 5), (2, 4, 6)]))),
        ]
        dumps = []
        for degree, perms in actions:
            dumps.append(tmp_path / f"{degree}.dump")
            rep = PermutationRep(basilica().alphabet, degree, perms)
            dumps[-1].write_text(dump_table(table_from_rep(rep)))
        commands = [
            ("index", "builtin:basilica", *BAS_U),
            ("member", "builtin:basilica", *BAS_U, "--word", "b^2*a^3"),
            ("member", "builtin:basilica", *BAS_U, "--word", "a"),
            ("core", "builtin:basilica", *BAS_U),
            ("intersect", "builtin:basilica", *BAS_U, "--subgroup2", "a, b^2, b*a*b^-1"),
            *(("validate", "builtin:basilica", "--table", str(d)) for d in dumps),
        ]
        for argv in commands:
            code, text, _ = run_cli(*argv, "--format", "csv")
            assert code == EXIT_OK
            records = list(csv.reader(io.StringIO(text)))
            assert all(len(r) == 2 for r in records), argv
            _, payload, _ = run_cli(*argv, "--format", "json")
            expected = {k: _csv_cell(v) for k, v in json.loads(payload).items() if k != "table"}
            assert dict(records) == expected, argv
            assert len(records) == len(expected), argv

    def test_count_rows(self):
        argv = ("low-index", "builtin:grigorchuk", "--max-index", "4", "--normal", "--maximal")
        _, text, _ = run_cli(*argv, "--format", "csv")
        header, *rows = csv.reader(io.StringIO(text))
        assert header == ["index", "subgroups", "normal", "maximal"]
        payload = json.loads(run_cli(*argv, "--format", "json")[1])
        counts = [payload[k] for k in ("counts", "normal_counts", "maximal_counts")]
        assert [r[0] for r in rows] == list(counts[0])
        for idx, *cells in rows:
            # the maximal cell at index 1 is blank by convention
            expected = [str(c[idx]) for c in counts]
            assert cells == (expected[:2] + [""] if idx == "1" else expected)


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

    def test_presentation_file_not_utf8(self, tmp_path):
        path = tmp_path / "binary.lp"
        path.write_bytes(b"\xff")
        code, out, err = run_cli("index", str(path), "--subgroup", "")
        assert code == EXIT_PARSE
        assert out == ""
        assert "cannot read presentation file" in err

    def test_unknown_generator_in_endomorphism(self, tmp_path):
        path = tmp_path / "bad.lp"
        path.write_text("generators: a b\nendomorphism s: z -> a, a -> b\n")
        code, out, err = run_cli("index", str(path), "--subgroup", "")
        assert code == EXIT_PARSE
        assert out == ""
        assert "unknown generator 'z' in endomorphism s" in err

    @pytest.mark.parametrize("power", ["a^99999999999999999999", "a^3000000000"])
    def test_huge_power_is_parse_error(self, power):
        # refused before any letter is built: no OverflowError or MemoryError
        code, out, err = run_cli("index", "builtin:basilica", "--subgroup", power)
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"error: power longer than 1000000 letters in word {power!r}\n"

    @pytest.mark.parametrize("max_index", ["0", "1000001", "1000000000", "99999999999999999999"])
    def test_max_index_out_of_range_is_input_error(self, max_index):
        # refused before the descent allocates its table
        code, out, err = run_cli("low-index", "builtin:basilica", "--max-index", max_index)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: max_index must be in 1..1000000, the coset ceiling\n"

    def test_max_index_is_checked_before_the_covering_is_built(self):
        # level 12 of B(2,4) is refused for its size when it is built
        code, out, err = run_cli(
            "low-index", "builtin:burnside(2,4)", "--max-index", "0", "--level", "12"
        )
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: max_index must be in 1..1000000, the coset ceiling\n"

    @pytest.mark.stretch
    def test_a_deep_low_index_search_answers(self, tmp_path):
        # Z/1000 to index 1000 goes a thousand choices deep, past the
        # default recursion limit of 1000 frames were each choice a Python
        # call; it answers after 25-29 s on a 2-vCPU host, with one
        # subgroup per divisor of 1000
        path = tmp_path / "cyclic.lp"
        path.write_text("generators: a\nfixed: a^1000\n")
        code, out, err = fresh_cli("low-index", str(path), "--max-index", "1000", "--level", "0")
        assert (code, err) == (EXIT_OK, "")
        header, *rows = out.splitlines()
        assert header.split() == ["index", "subgroups"]
        counts = dict(tuple(map(int, row.split())) for row in rows)
        assert counts == {d: int(1000 % d == 0) for d in range(1, 1001)}
        assert sum(counts.values()) == 16

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
        # <b,c,d> has infinite index in the Grigorchuk group: levels 0-2
        # overflow 2^8 and 2^12 cosets, and level 2 overflows the ceiling
        code, _, err = run_cli(
            "index", "builtin:grigorchuk", "--subgroup", "b,c,d", "--hard-ceiling", "65536"
        )
        assert code == EXIT_RESOURCE
        assert "no closed table within 65536 cosets at level 2" in err

    def test_certified_give_up_enumerates_nothing(self):
        # <a> has infinite index in every covering of the Basilica group,
        # whose relators are commutators: each attempt is skipped, and the
        # give-up reads as before
        with mock.patch.object(pipeline, "todd_coxeter", wraps=pipeline.todd_coxeter) as tc:
            code, out, err = run_cli("index", "builtin:basilica", "--subgroup", "a")
        assert (code, out) == (EXIT_RESOURCE, "")
        assert err == "error: no closed table within 1000000 cosets at level 3\n"
        assert tc.call_count == 0

    def test_small_escalation_factor_closes(self):
        # one level per doubling died building the covering of level 10;
        # cheap attempts at deeper levels close at level 2
        code, out, err = run_cli(
            "index", "builtin:burnside(2,3)", "--subgroup", "a1",
            "--max-cosets", "4", "--escalation-factor", "2",
        )
        assert (code, err) == (EXIT_OK, "")
        assert "index: 9" in out
        assert "level: 2" in out

    def test_small_escalation_factor_closes_below_a_refused_covering(self):
        # the covering of B(3,3) refuses level 6, which the schedule weighs
        # before it reaches the pair that closes at level 3
        code, out, err = run_cli(
            "index", "builtin:burnside(3,3)", "--subgroup", "a1,a2",
            "--max-cosets", "4", "--escalation-factor", "2",
        )
        assert (code, err) == (EXIT_OK, "")
        assert "index: 81" in out
        assert "level: 3" in out

    def test_small_escalation_factor_gives_up_within_memory(self):
        # B(3,3) has order 3^7 > 2000: the run gives up at level 5, the
        # deepest its covering builds, and a 1 GB address space is plenty
        import resource
        import subprocess
        import sys

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))

        proc = subprocess.run(
            [sys.executable, "-m", "lpcoset.cli", "index", "builtin:burnside(3,3)",
             "--subgroup", "1", "--max-cosets", "4", "--escalation-factor", "2",
             "--hard-ceiling", "2000"],
            capture_output=True, text=True, preexec_fn=limit_memory, timeout=300,
        )
        assert proc.returncode == EXIT_RESOURCE
        assert proc.stderr == "error: no closed table within 2000 cosets at level 5\n"

    def test_long_product_of_powers_is_a_parse_error_within_memory(self):
        # each power is within the word bound, their product is not: the
        # parser stops at the second factor instead of collecting forty
        # million letters
        import resource
        import subprocess
        import sys

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (5 * 10**8, 5 * 10**8))

        proc = subprocess.run(
            [sys.executable, "-m", "lpcoset.cli", "index", "builtin:basilica",
             "--subgroup", "*".join(["a^1000000"] * 40)],
            capture_output=True, text=True, preexec_fn=limit_memory, timeout=300,
        )
        assert proc.returncode == EXIT_PARSE
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1 and "word longer than 1000000 letters" in proc.stderr

    @pytest.mark.parametrize(
        "argv, code",
        [
            ("low-index builtin:grigorchuk --max-index 2 --level 40", EXIT_RESOURCE),
            ("index builtin:grigorchuk --subgroup a,b,c,d --level 40", EXIT_RESOURCE),
            ("low-index builtin:burnside(2,2) --max-index 2 --level 30", EXIT_RESOURCE),
            ("index builtin:burnside(1,100000000) --subgroup a1", EXIT_INPUT),
            ("index builtin:burnside(3000,2) --subgroup a1", EXIT_INPUT),
        ],
    )
    def test_unbounded_presentations_are_refused_within_memory(self, argv, code):
        # coverings whose letters multiply with each level, and Burnside
        # groups past the letter bounds, are refused before they are built
        import resource

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (15 * 10**8, 15 * 10**8))

        proc = subprocess.run(
            [sys.executable, "-m", "lpcoset.cli", *argv.split()],
            capture_output=True, text=True, preexec_fn=limit_memory, timeout=300,
        )
        assert proc.returncode == code
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    def test_early_end_names_the_end_of_input(self):
        code, out, err = run_cli("index", "builtin:basilica", "--subgroup", "b, a^")
        assert (code, out) == (EXIT_PARSE, "")
        assert err == "error: unexpected end of input in word 'a^'\n"

    def test_deep_nesting_parses(self):
        deep = 10_000
        nested = "(" * deep + "a" + ")" * deep
        code, out, _ = run_cli("index", "builtin:basilica", "--subgroup", f"{nested}, b")
        assert (code, out.splitlines()[0]) == (EXIT_OK, "index: 1")
        code, out, _ = run_cli(
            "member", "builtin:basilica", *BAS_U, "--word", "[b," * deep + "b" + "]" * deep
        )
        assert (code, out) == (EXIT_OK, "member: true\n")

    def test_deep_nesting_past_the_word_bound_is_a_parse_error(self):
        # [a,w] has about twice the letters of w, so the bound stops it
        deep = 10_000
        code, out, err = run_cli(
            "index", "builtin:basilica", "--subgroup", "[a," * deep + "b" + "]" * deep
        )
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("error: word longer than 1000000 letters in word '[a,[a,")
        assert err.count("\n") == 1

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


class TestParserBuiltOnce:
    def test_not_built_at_import(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import lpcoset.cli as c; print(c._build_parser.cache_info().currsize)"],
            capture_output=True, text=True, timeout=300,
        )
        assert (proc.returncode, proc.stdout) == (0, "0\n")

    def test_one_parser_answers_as_a_fresh_process(self, tmp_path):
        from lpcoset import basilica, dump_table, enumerate_cosets, parse_subgroup

        bas = basilica()
        dump = tmp_path / "u.dump"
        dump.write_text(dump_table(enumerate_cosets(bas, parse_subgroup(bas.alphabet, BAS_U[1])).table))
        commands = [
            ("index", "builtin:basilica", *BAS_U),
            ("index", "builtin:basilica", *BAS_U, "-v", "--format", "json"),
            ("member", "builtin:basilica", *BAS_U, "--word", "b^2*a^3", "--format", "csv"),
            ("member", "builtin:basilica", *BAS_U, "--word", "a", "-v"),
            ("core", "builtin:basilica", *BAS_U, "-v", "--format", "table"),
            ("intersect", "builtin:basilica", *BAS_U, "--subgroup2", "a, b^2, b*a*b^-1",
             "--format", "json"),
            ("low-index", "builtin:basilica", "--max-index", "3", "--normal", "--maximal",
             "--list", "-vv"),
            ("low-index", "builtin:basilica", "--max-index", "3", "--format", "csv"),
            ("validate", "builtin:basilica", "--table", str(dump), "-v", "--format", "json"),
            ("index", "builtin:basilica", "--subgroup", "a^3, q"),
        ]
        cli._build_parser.cache_clear()
        for argv in commands:
            assert run_cli(*argv) == fresh_cli(*argv), argv
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(commands) - 1)

    def test_usage_error_still_exits_two(self, capsys):
        argv = ["index", "builtin:basilica", "--format", "yaml"]
        main(["index", "builtin:basilica", *BAS_U], out=io.StringIO(), err=io.StringIO())
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert (2, captured.out, captured.err) == fresh_cli(*argv)
        # the parser that refused it still serves the next command
        code, out, _ = run_cli("index", "builtin:basilica", *BAS_U)
        assert (code, out.splitlines()[0]) == (EXIT_OK, "index: 3")


_COMMON = {"-h", "--help", "presentation", "--reduction-cap", "--format", "-v", "--verbose"}
_ENUMERATING = _COMMON | {
    "--subgroup", "--level", "--max-cosets", "--escalation-factor", "--hard-ceiling"
}


class TestEachCommandReadsItsSettings:
    def test_options_per_command(self):
        sub = next(
            a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        options = {
            name: {s for a in p._actions for s in (a.option_strings or [a.dest])}
            for name, p in sub.choices.items()
        }
        assert options == {
            "index": _ENUMERATING,
            "member": _ENUMERATING | {"--word"},
            "core": _ENUMERATING,
            "intersect": _ENUMERATING | {"--subgroup2"},
            "low-index": _COMMON | {
                "--max-index", "--level", "--normal", "--maximal", "--list", "--max-tables"
            },
            "validate": _COMMON | {"--table"},
        }

    def test_level_defaults(self):
        parse = cli._build_parser().parse_args
        assert parse(["low-index", "builtin:basilica", "--max-index", "2"]).level == 1
        assert parse(["index", "builtin:basilica", "--subgroup", ""]).level == 0

    @pytest.mark.parametrize(
        "argv",
        [
            "low-index builtin:grigorchuk --max-index 2 --hard-ceiling 5",
            "low-index builtin:grigorchuk --max-index 2 --max-cosets 4",
            "validate builtin:basilica --table u.dump --level 3",
            "index builtin:basilica --subgroup a --word a",
        ],
    )
    def test_a_setting_the_command_does_not_read_is_a_usage_error(self, argv, capsys):
        # the usage and the error name the command, whose usage lists what it reads
        command = argv.split()[0]
        with pytest.raises(SystemExit) as info:
            main(argv.split())
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: lpcoset {command} [-h] ")
        assert captured.err.endswith(
            f"\nlpcoset {command}: error: unrecognized arguments: "
            f"{' '.join(argv.split()[-2:])}\n"
        )

    def test_list_has_no_csv_form(self, capsys):
        # the CSV report is the count table alone, so the list would be lost
        argv = "low-index builtin:basilica --max-index 3 --list --format csv".split()
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: lpcoset low-index [-h] ")
        assert captured.err.endswith(
            "\nlpcoset low-index: error: --list has no CSV form; use --format table or json\n"
        )
        code, out, _ = run_cli(*argv[:-1], "json")
        assert code == EXIT_OK and len(json.loads(out)["subgroups"]) == 11

    def test_reduction_cap_is_checked_by_the_library(self, tmp_path):
        # the candidate cap stops the descent before any validity walk
        dump = tmp_path / "whole.dump"
        dump.write_text("1\t1\t1\t1\n")
        for argv in [
            ("low-index", "builtin:basilica", "--max-index", "3", "--max-tables", "0"),
            ("validate", "builtin:basilica", "--table", str(dump)),
        ]:
            assert run_cli(*argv, "--reduction-cap", "0", "-v") == (
                EXIT_INPUT, "", "error: cap must be positive\n"
            ), argv

    def test_verbose_is_a_switch(self):
        argv = ("low-index", "builtin:basilica", "--max-index", "3", "--list")
        assert cli._build_parser().parse_args([*argv, "-vv"]).verbose is True
        assert run_cli(*argv, "-vv") == run_cli(*argv, "-v")

    def test_the_environment_sets_no_ceiling(self, monkeypatch):
        monkeypatch.setenv("LPCOSET_HARD_CEILING", "abc")
        code, out, _ = run_cli(
            "index", "builtin:burnside(1,3)", "--subgroup", "", "--max-cosets", "100"
        )
        assert (code, out.splitlines()[0]) == (EXIT_OK, "index: 3")
