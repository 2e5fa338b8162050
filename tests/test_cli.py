import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from unicoh import Bipartition, ExactDivisionError, Partition, RankCapError, VerificationError
from unicoh import cli
from unicoh import deligne_lusztig as dl
from unicoh import harish_chandra as hc
from unicoh import partitions
from unicoh import unipotent
from unicoh import weyl_characters as wc
from unicoh.cli import main, parse_bipartition, parse_partition

from child_env import child_env
from cli_outputs import GOLDEN, rows, sha256
from memos import MEMOS, clear_memos


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out.rstrip("\n"), captured.err


class TestParsing:
    def test_partition(self):
        assert parse_partition("3,3,2,2,1") == Partition((3, 3, 2, 2, 1))
        assert parse_partition("") == Partition(())
        assert parse_partition("0") == Partition(())

    def test_bipartition(self):
        assert parse_bipartition("3,1,1/4,2") == Bipartition.of((3, 1, 1), (4, 2))
        assert parse_bipartition("/4,2") == Bipartition.of((), (4, 2))
        assert parse_bipartition("/") == Bipartition.of((), ())

    def test_malformed(self):
        with pytest.raises(cli.CliError):
            parse_partition("3,x")
        with pytest.raises(cli.CliError):
            parse_bipartition("3,1")


class TestScalarCommands:
    def test_char_sym_worked_example(self, capsys):
        status, out, _ = run(capsys, "char-sym", "--lambda", "3,3,2,2,1", "--class", "4,4,3")
        assert status == 0
        assert out == "-2"

    def test_char_b_worked_example(self, capsys):
        status, out, _ = run(capsys, "char-b", "--label", "3,1,1/4,2", "--class", "4/5,2")
        assert status == 0
        assert out == "-1"

    def test_char_sym_json(self, capsys):
        status, out, _ = run(
            capsys, "char-sym", "--lambda", "3,3,2,2,1", "--class", "4,4,3", "--format", "json"
        )
        assert status == 0
        assert json.loads(out)["value"] == "-2"

    def test_size_mismatch_is_usage_error(self, capsys):
        status, _, err = run(capsys, "char-sym", "--lambda", "2,1", "--class", "2")
        assert status == 2
        assert "error" in err

    def test_malformed_partition_is_usage_error(self, capsys):
        status, _, err = run(capsys, "char-sym", "--lambda", "2,x", "--class", "3")
        assert status == 2

    def test_degree_engine_failure_exits_1(self, capsys, monkeypatch):
        # an exact-division failure is an engine bug: exit 1, not a traceback
        # and not a usage error
        def failing(lam):
            raise ExactDivisionError(f"U degree of {tuple(lam)} not polynomial: injected")

        monkeypatch.setattr(cli, "degree_u", failing)
        status, out, err = run(capsys, "degree", "--group", "u", "--lambda", "2,1")
        assert status == 1
        assert out == ""
        assert err == "internal failure: U degree of (2, 1) not polynomial: injected\n"

    def test_degree(self, capsys):
        status, out, _ = run(capsys, "degree", "--group", "u", "--lambda", "1,1,1")
        assert status == 0
        assert out == "q^3"

    def test_degree_evaluated(self, capsys):
        status, out, _ = run(
            capsys, "degree", "--group", "u", "--lambda", "2,1", "--at", "3", "--format", "json"
        )
        data = json.loads(out)
        assert data["at"] == {"q": 3, "value": "6"}


class TestCombinatoricsCommands:
    def test_two_quotient_worked_example(self, capsys):
        status, out, _ = run(capsys, "two-quotient", "--lambda", "3,3,2,2,1")
        assert status == 0
        assert out == "core t=1, quotient [[2,2],[1]]"

    def test_two_core(self, capsys):
        status, out, _ = run(capsys, "two-core", "--lambda", "3,3,2,2,1")
        assert "t=1" in out

    def test_reconstruct(self, capsys):
        status, out, _ = run(capsys, "reconstruct", "--t", "1", "--quotient", "2,2/1")
        assert status == 0
        assert out == "[3,3,2,2,1]"

    def test_label_forward(self, capsys):
        status, out, _ = run(capsys, "label", "--lambda", "3,3,2,2,1", "--format", "json")
        data = json.loads(out)
        assert data["symbol"] == {"t": 1, "alpha": [1], "beta": [2, 2]}

    def test_label_backward(self, capsys):
        status, out, _ = run(capsys, "label", "--t", "1", "--alpha", "1", "--beta", "2,2")
        assert out == "[3,3,2,2,1]"

    def test_label_missing_args(self, capsys):
        status, _, err = run(capsys, "label")
        assert status == 2

    def test_series(self, capsys):
        status, out, _ = run(capsys, "series", "--lambda", "3,3,2,2,1", "--format", "json")
        data = json.loads(out)
        assert data["t"] == 1
        assert data["principal"] is True
        assert data["cuspidal"] is False

    def test_pieri_add(self, capsys):
        status, out, _ = run(capsys, "pieri", "--label", "/", "--add", "1")
        assert status == 0
        assert set(out.splitlines()) == {"[[1],[]]", "[[],[1]]"}

    def test_pieri_remove(self, capsys):
        status, out, _ = run(capsys, "pieri", "--label", "3/1", "--remove", "1", "--format", "json")
        data = json.loads(out)
        assert [[3], []] in data["result"]
        assert [[2], [1]] in data["result"]

    def test_pieri_requires_exactly_one_op(self, capsys):
        status, _, _ = run(capsys, "pieri", "--label", "1/")
        assert status == 2
        status, _, _ = run(capsys, "pieri", "--label", "1/", "--add", "1", "--remove", "1")
        assert status == 2

    def test_induce(self, capsys):
        status, out, _ = run(
            capsys, "induce", "--t", "1", "--alpha", "", "--beta", "", "--gl", "1", "--format", "json"
        )
        data = json.loads(out)
        assert data["n"] == 3
        labels = [entry["label"] for entry in data["result"]]
        assert {"t": 1, "alpha": [1], "beta": []} in labels
        assert {"t": 1, "alpha": [], "beta": [1]} in labels


class TestTables:
    def test_character_table_json_schema(self, capsys):
        status, out, _ = run(capsys, "table", "--group", "b", "--a", "2", "--format", "json")
        data = json.loads(out)
        assert set(data) == {"group", "labels", "classes", "class_sizes", "values"}
        assert len(data["labels"]) == 5

    def test_character_table_requires_rank(self, capsys):
        status, _, _ = run(capsys, "table", "--group", "sym")
        assert status == 2

    def test_rank_cap_enforced(self, capsys):
        status, _, err = run(capsys, "table", "--group", "sym", "--n", "9")
        assert status == 2
        assert "--max-n" in err

    def test_rank_cap_overridable_with_warning(self, capsys):
        status, out, err = run(capsys, "table", "--group", "sym", "--n", "9", "--max-n", "9")
        assert status == 0
        assert "warning" in err

    def test_quiet_suppresses_warning(self, capsys):
        status, _, err = run(capsys, "table", "--group", "sym", "--n", "9", "--max-n", "9", "-q")
        assert status == 0
        assert err == ""

    def test_verbose_reports_runtime(self, capsys):
        status, _, err = run(capsys, "two-core", "--lambda", "3,3,2,2,1", "-v")
        assert status == 0
        assert "computed in" in err

    def test_csv_format(self, capsys):
        status, out, _ = run(capsys, "table", "--group", "sym", "--n", "2", "--format", "csv")
        lines = out.splitlines()
        assert lines[0].startswith("label,")
        assert len(lines) == 4  # header, class sizes, two characters

    def test_coxeter_table(self, capsys):
        status, out, _ = run(capsys, "coxeter", "--k", "1")
        assert status == 0
        assert "H^1" in out and "H^2" in out

    def test_stratum_table_matches_closed(self, capsys):
        _, spectral, _ = run(capsys, "stratum", "--theta", "2", "--format", "json")
        _, closed, _ = run(capsys, "stratum", "--theta", "2", "--method", "closed", "--format", "json")
        left, right = json.loads(spectral), json.loads(closed)
        assert left["entries"] == right["entries"]

    def test_stratum_json_round_trips(self, capsys):
        _, out, _ = run(capsys, "stratum", "--theta", "1", "--format", "json")
        expected = json.loads(json.dumps(dl.stratum_cohomology(1).to_json()))
        assert json.loads(out) == expected

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        status, out, _ = run(
            capsys, "stratum", "--theta", "1", "--format", "json", "--out", str(target)
        )
        assert status == 0
        assert out == ""
        assert json.loads(target.read_text())["variety"] == "closed-stratum(theta=1)"

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "x.json"
        status, out, err = run(capsys, "two-core", "--lambda", "2,1", "--out", str(target))
        assert status == 2
        assert out == ""
        assert err == f"error: cannot write {target}: No such file or directory\n"
        assert "Traceback" not in err


class TestVerify:
    def test_single_theta_report(self, capsys):
        status, out, _ = run(capsys, "verify", "--theta", "3")
        assert status == 0
        lines = out.splitlines()
        assert sum(1 for l in lines if l.startswith("PASS")) == 5
        assert lines[-1].startswith("OK")

    def test_single_k_report(self, capsys):
        status, out, _ = run(capsys, "verify", "--k", "3")
        assert status == 0
        assert "coxeter-eigenspace-dimension" in out
        assert "coxeter-restriction" in out

    def test_sweep_passes(self, capsys):
        status, out, _ = run(capsys, "verify", "-q")
        assert status == 0
        assert "FAIL" not in out

    def test_lowered_cap_lowers_the_sweep(self, capsys):
        status, out, err = run(capsys, "verify", "--max-theta", "3")
        assert status == 0
        assert err == ""
        assert out.splitlines()[-1] == "OK: 129/129 checks passed"

    def test_sweep_json(self, capsys):
        status, out, _ = run(capsys, "verify", "--theta", "2", "--format", "json")
        data = json.loads(out)
        assert data["ok"] is True
        assert all(c["passed"] for c in data["checks"])

    @pytest.mark.parametrize(
        "argv, terms, tables",
        [(("-q",), 189, 7), (("--k", "6", "-q"), None, 2), (("--k", "0", "-q"), None, 1)],
    )
    def test_each_coxeter_table_is_built_once(self, capsys, monkeypatch, argv, terms, tables):
        # the sweep builds the tables of ranks 0..6 once each, one stratum
        # term per Coxeter cell plus those of the closed strata
        calls = {"stratum_term": 0, "coxeter_cohomology": 0}
        for name in calls:
            original = getattr(dl, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(dl, name, counted)
        status, _, _ = run(capsys, "verify", *argv)
        assert status == 0
        assert calls["coxeter_cohomology"] == tables
        if terms is not None:
            assert calls["stratum_term"] == terms


class TestMutationDetection:
    def test_pieri_fault_flips_verify(self, capsys, monkeypatch):
        original = hc.pieri_induce

        def broken(start, boxes):
            outs = original(start, boxes)
            return outs[:-1] if len(outs) > 1 else outs

        monkeypatch.setattr(hc, "pieri_induce", broken)
        status, out, err = run(capsys, "verify", "-q")
        assert status == 1

    def test_typeb_character_fault_flips_verify(self, capsys, monkeypatch):
        original = wc.chi_typeb

        def broken(label, klass):
            value = original(label, klass)
            if label == Bipartition.of((1,), (1,)) and klass == Bipartition.of((), (1, 1)):
                return value + 1
            return value

        monkeypatch.setattr(wc, "chi_typeb", broken)
        status, out, err = run(capsys, "verify", "-q")
        assert status == 1

    def test_sym_character_fault_flips_verify(self, capsys, monkeypatch):
        original = wc.chi_sym

        def broken(lam, nu):
            value = original(lam, nu)
            if lam == Partition((2, 1)) and nu == Partition((1, 1, 1)):
                return value - 1
            return value

        monkeypatch.setattr(wc, "chi_sym", broken)
        status, out, err = run(capsys, "verify", "-q")
        assert status == 1


class TestPieriFaultReachesEngine:
    def test_pieri_fault_fails_stratum_verification(self, monkeypatch):
        # hc_induce must go through the module-level pieri_induce, so the
        # fault reaches the stratum terms and not only the reciprocity check
        original = hc.pieri_induce

        def broken(start, boxes):
            outs = original(start, boxes)
            return outs[:-1] if len(outs) > 1 else outs

        assert dl.verify_stratum(3).ok
        monkeypatch.setattr(hc, "pieri_induce", broken)
        assert dl.verify_stratum(3).ok is False


def test_the_memo_walk_finds_every_memo():
    # a new memo is a visible change here, and the fault fixtures empty it too
    assert sorted(f"{memo.__module__}.{memo.__qualname__}" for memo in MEMOS) == [
        "unicoh.deligne_lusztig.coxeter_hook",
        "unicoh.deligne_lusztig.index_form_row",
        "unicoh.harish_chandra.add_horizontal_strips",
        "unicoh.partitions.partitions_of",
        "unicoh.unipotent._to_symbol",
        "unicoh.unipotent.degree_gl",
        "unicoh.unipotent.degree_u",
        "unicoh.unipotent.from_symbol",
        "unicoh.unipotent.symbol",
        "unicoh.weyl_characters._block_moves",
        "unicoh.weyl_characters._strip_moves",
        "unicoh.weyl_characters.chi_sym",
        "unicoh.weyl_characters.chi_typeb",
        "unicoh.weyl_characters.labels_typeb",
        "unicoh.weyl_characters.typeb_column",
    ]


@pytest.fixture
def all_memos():
    """Empty every memo after the test, so values computed under an injected
    fault do not leak into later tests."""
    yield clear_memos
    clear_memos()


class TestStripCacheFault:
    def test_strip_fault_behind_warm_cache_flips_verify(self, capsys, monkeypatch, all_memos):
        clean = wc.character_table_typeb(3)
        assert wc._strip_moves.cache_info().currsize > 0
        original = wc.border_strips

        def broken(lam, size):
            strips = original(lam, size)
            return strips[:-1] if lam == Partition((2, 1)) and size == 1 else strips

        monkeypatch.setattr(wc, "border_strips", broken)
        all_memos()
        assert wc.character_table_typeb(3).values != clean.values
        status, _, _ = run(capsys, "verify", "-q")
        assert status == 1


class TestBorderStripsAskedOnce:
    def test_each_strip_set_is_asked_once(self, monkeypatch, all_memos):
        # border_strips has no memo: the strip moves of each (size, x) hold
        # its answers as positions, for the alpha and the beta side alike
        asked = Counter()
        original = wc.border_strips

        def counted(lam, size):
            asked[lam, size] += 1
            return original(lam, size)

        monkeypatch.setattr(wc, "border_strips", counted)
        all_memos()
        for a in range(8):
            wc.character_table_typeb(a)
        wc.chi_typeb(Bipartition.of((5, 3, 1), (4, 2, 1)), Bipartition.of((2, 2, 1, 1), (3, 2, 2, 1, 1, 1)))
        assert asked
        assert [key for key, count in asked.items() if count > 1] == []


class TestSymThroughTypeB:
    def test_typeb_fault_reaches_sym_table(self, monkeypatch, all_memos):
        # S_n values are W_n values at (lam, empty), (nu, empty), so a fault in
        # the one recursion must show in the S_n table too
        assert wc.character_table_sym(3).is_orthogonal(6)
        original = wc.chi_typeb

        def broken(label, klass):
            value = original(label, klass)
            if label == Bipartition.of((2, 1), ()) and klass == Bipartition.of((1, 1, 1), ()):
                return value + 1
            return value

        monkeypatch.setattr(wc, "chi_typeb", broken)
        all_memos()
        assert not wc.character_table_sym(3).is_orthogonal(6)


class TestColumnFaultReachesTypeBTable:
    # a class of rank 3: no column of the W_3 table is built from its column,
    # so only the table's own lookup of typeb_column can carry the fault
    LABEL, KLASS = Bipartition.of((2,), (1,)), Bipartition.of((1,), (1, 1))

    def test_table_reads_columns_not_single_values(self, all_memos):
        all_memos()
        wc.character_table_typeb(3)
        assert wc.typeb_column.cache_info().currsize > 0
        assert wc.chi_typeb.cache_info().currsize == 0

    def test_column_fault_reaches_typeb_table(self, capsys, monkeypatch, all_memos):
        # the W_a table looks typeb_column up at call time, so a wrapped
        # column reaches it, and the orthogonality checks of verify with it
        clean = wc.character_table_typeb(3)
        original = wc.typeb_column

        def broken(klass):
            column = original(klass)
            if klass == self.KLASS:
                i = wc.labels_typeb(3).index(self.LABEL)
                return column[:i] + (column[i] + 1,) + column[i + 1 :]
            return column

        monkeypatch.setattr(wc, "typeb_column", broken)
        all_memos()
        assert wc.character_table_typeb(3).values != clean.values
        status, _, _ = run(capsys, "verify", "-q")
        assert status == 1


class TestPlainTupleArguments:
    # chi_typeb, typeb_column, typeb_class_size and the reciprocity oracle make
    # their arguments Bipartitions of Partitions before they read, and the
    # Pieri rule unpacks any (first, second) pair, so a plain tuple, trailing
    # zeros and all, reads the same value from empty memos as after its
    # Bipartition is cached
    @pytest.mark.parametrize("plain_first", [True, False], ids=["plain-first", "bipartition-first"])
    @pytest.mark.parametrize(
        "module, name, plain, canonical, expected",
        [
            (wc, "chi_typeb", (((2, 0), ()), ((1, 1), ())), (Bipartition.of((2,), ()), Bipartition.of((1, 1), ())), 1),
            (wc, "chi_typeb", (Bipartition.of((), (1,)), ((), (1,))), (Bipartition.of((), (1,)), Bipartition.of((), (1,))), -1),
            (wc, "typeb_column", (((1,), ()),), (Bipartition.of((1,), ()),), (1, 1)),
            (wc, "typeb_class_size", (((1,), ()),), (Bipartition.of((1,), ()),), 1),
            (
                hc,
                "induction_multiplicity_oracle",
                (1, 1, ((1,), ()), (1,), ((2,), ())),
                (1, 1, Bipartition.of((1,), ()), Partition((1,)), Bipartition.of((2,), ())),
                1,
            ),
            (
                hc,
                "pieri_induce",
                (((2, 0), ()), 1),
                (Bipartition.of((2,), ()), 1),
                (((3,), ()), ((2, 1), ()), ((2,), (1,))),
            ),
            (
                hc,
                "pieri_restrict",
                (((2, 0), (1, 0)), 1),
                (Bipartition.of((2,), (1,)), 1),
                (((2,), ()), ((1,), (1,))),
            ),
        ],
        ids=[
            "chi_typeb-label",
            "chi_typeb-class",
            "typeb_column",
            "typeb_class_size",
            "induction_multiplicity_oracle",
            "pieri_induce",
            "pieri_restrict",
        ],
    )
    def test_both_call_orders_from_empty_memos(self, all_memos, module, name, plain, canonical, expected, plain_first):
        all_memos()
        function = getattr(module, name)
        calls = (plain, canonical) if plain_first else (canonical, plain)
        assert [function(*args) for args in calls] == [expected, expected]


class TestHorizontalStripCacheFault:
    def test_strip_fault_behind_warm_cache_flips_verify(self, capsys, monkeypatch, all_memos):
        assert dl.verify_stratum(3).ok
        assert hc.add_horizontal_strips.cache_info().currsize > 0
        original = hc.add_horizontal_strips

        def broken(lam, boxes):
            strips = original(lam, boxes)
            return strips[:-1] if lam == Partition((1,)) and boxes == 1 else strips

        monkeypatch.setattr(hc, "add_horizontal_strips", broken)
        all_memos()
        assert hc.pieri_induce(Bipartition.of((1,), ()), 1) == (
            Bipartition.of((2,), ()),
            Bipartition.of((1,), (1,)),
        )
        assert dl.verify_stratum(3).ok is False
        status, _, _ = run(capsys, "verify", "-q")
        assert status == 1


class TestLabelMemoFault:
    """With the label memo warm from a whole stratum table, a fault on either
    stratum-term path still fails the dual-path comparison."""

    CELL = (6, 3, 3)

    @pytest.fixture
    def warm_memos(self, all_memos):
        all_memos()
        dl.stratum_cohomology(6)
        labels = unipotent.symbol.cache_info()
        dl.stratum_term(*self.CELL)
        # rebuilding the cell finds every label in the memo
        assert unipotent.symbol.cache_info().misses == labels.misses

    def test_extra_explicit_label_is_a_mismatch(self, monkeypatch, warm_memos):
        original = dl._stratum_term_explicit

        def extra(theta, theta_prime, a):
            t, pairs = original(theta, theta_prime, a)
            if (theta, theta_prime, a) != self.CELL:
                return t, pairs
            alpha, beta = pairs[0]
            outsider = next(
                (tuple(first), tuple(second))
                for first, second in partitions.bipartitions_of(sum(alpha) + sum(beta))
                if (first, second) not in pairs
            )
            # kept in descending order, so only the extra pair differs
            return t, tuple(sorted(pairs + (outsider,), reverse=True))

        monkeypatch.setattr(dl, "_stratum_term_explicit", extra)
        with pytest.raises(VerificationError, match="stratum term mismatch"):
            dl.stratum_term(*self.CELL)
        assert dl.verify_stratum(6).ok is False

    def test_pieri_fault_is_a_mismatch(self, monkeypatch, warm_memos):
        original = hc.pieri_induce

        def broken(start, boxes):
            outs = original(start, boxes)
            return outs[:-1] if len(outs) > 1 else outs

        monkeypatch.setattr(hc, "pieri_induce", broken)
        with pytest.raises(VerificationError, match="stratum term mismatch"):
            dl.stratum_term(*self.CELL)
        assert dl.verify_stratum(6).ok is False


class TestCoxeterTableGuard:
    """The Coxeter table is the top Ekedahl-Oort stratum, so each of its
    labels passes the dual-path comparison of `stratum_term`."""

    @pytest.fixture
    def dropped_label(self, monkeypatch):
        original = dl._stratum_term_explicit

        def drop_one(theta, theta_prime, a):
            t, pairs = original(theta, theta_prime, a)
            return t, pairs[1:]

        monkeypatch.setattr(dl, "_stratum_term_explicit", drop_one)

    def test_library_raises(self, dropped_label):
        with pytest.raises(VerificationError, match="stratum term mismatch"):
            dl.coxeter_cohomology(3)

    def test_cli_reports_verification_failure(self, capsys, dropped_label):
        status, out, err = run(capsys, "coxeter", "--k", "3", "-q")
        assert status == 1
        assert out == ""
        assert err.startswith("verification failure: stratum term mismatch at (theta=3, theta'=3, a=0)")


class TestArgumentBoundary:
    @pytest.mark.parametrize(
        "argv",
        [
            ("stratum", "--theta", "-1"),
            ("verify", "--theta", "-1"),
            ("coxeter", "--k", "-1"),
            ("verify", "--k", "-2"),
            ("table", "--group", "b", "--a", "-1"),
            ("table", "--group", "sym", "--n", "-3"),
            ("label", "--t", "-1", "--alpha", "", "--beta", ""),
            ("induce", "--t", "-1", "--alpha", "", "--beta", ""),
            ("reconstruct", "--t", "-1", "--quotient", "/"),
            ("pieri", "--label", "1/", "--add", "-1"),
            ("pieri", "--label", "1/", "--remove", "-1"),
        ],
    )
    def test_negative_integer_flag_is_usage_error(self, capsys, argv):
        status, out, err = run(capsys, *argv)
        assert status == 2
        assert out == ""
        assert err.startswith("error: --") and "must be nonnegative" in err

    def test_malformed_gl_ranks_is_usage_error(self, capsys):
        status, _, err = run(capsys, "induce", "--t", "0", "--alpha", "", "--beta", "", "--gl", "1,x")
        assert status == 2
        assert "malformed GL ranks" in err

    def test_library_value_error_exits_1(self, capsys, monkeypatch):
        # a ValueError raised inside the library is an engine bug, not bad arguments
        def failing(shape, label):
            raise ValueError("mixed cuspidal supports in one multiset: injected")

        monkeypatch.setattr(hc, "hc_induce", failing)
        status, out, err = run(capsys, "induce", "--t", "1", "--alpha", "", "--beta", "", "--gl", "1")
        assert status == 1
        assert out == ""
        assert err == "internal failure: mixed cuspidal supports in one multiset: injected\n"


class TestArgparseBehaviour:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2


class TestCaps:
    # (argv one above the default cap, flag that raises it)
    OVER_CAP = [
        (("table", "--group", "sym", "--n", "9"), "n"),
        (("table", "--group", "b", "--a", "6"), "a"),
        (("stratum", "--theta", "9"), "theta"),
        (("coxeter", "--k", "9"), "k"),
    ]
    # (cheap argv, cap name) to exercise a raised cap without the runtime
    CHEAP = [
        (("table", "--group", "sym", "--n", "2"), "n"),
        (("table", "--group", "b", "--a", "1"), "a"),
        (("stratum", "--theta", "1"), "theta"),
        (("coxeter", "--k", "1"), "k"),
    ]

    def test_table_lists_every_cap(self):
        assert set(cli.CAPS) == {"n", "a", "theta", "k"}
        assert [name for _, name in self.OVER_CAP] == list(cli.CAPS)

    @pytest.mark.parametrize("argv,name", OVER_CAP)
    def test_over_cap_is_usage_error(self, capsys, argv, name):
        assert int(argv[-1]) == cli.CAPS[name] + 1
        status, out, err = run(capsys, *argv)
        assert status == 2
        assert out == ""
        assert err.startswith("error: ") and f"--max-{name}" in err
        assert f"exceeds the cap {cli.CAPS[name]}" in err

    @pytest.mark.parametrize("argv,name", CHEAP)
    def test_raised_cap_warns_with_default(self, capsys, argv, name):
        status, _, err = run(capsys, *argv, f"--max-{name}", str(cli.CAPS[name] + 1))
        assert status == 0
        assert err == (
            f"warning: --max-{name} raised above the default {cli.CAPS[name]}; "
            "expect longer runtimes\n"
        )

    @pytest.mark.parametrize("argv,name", CHEAP + [(("verify",), "theta"), (("verify",), "k")])
    def test_negative_cap_is_usage_error(self, capsys, argv, name):
        # a negative cap would empty the verify sweep, which then reports OK
        status, out, err = run(capsys, *argv, f"--max-{name}", "-1")
        assert status == 2
        assert out == ""
        assert err == f"error: --max-{name} must be nonnegative, got -1\n"

    @pytest.mark.parametrize("name", ["theta", "k"])
    def test_raised_cap_on_the_sweep_warns_with_default(self, capsys, name):
        # a raised cap is the depth of the sweep, which runs deeper than the
        # default cap allows
        argv = ("verify", f"--max-{name}", str(cli.CAPS[name] + 1))
        status, out, err = run(capsys, *argv)
        assert status == 0
        assert out.splitlines()[-1].startswith("OK: ")
        assert err == (
            f"warning: --max-{name} raised above the default {cli.CAPS[name]}; "
            "expect longer runtimes\n"
        )
        status, _, err = run(capsys, *argv, "-q")
        assert status == 0
        assert err == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("char-sym", "--lambda", "1", "--class", "1", "--max-theta", "9"),
            ("pieri", "--label", "1/", "--add", "1", "--max-a", "9"),
            ("table", "--group", "sym", "--n", "1", "--max-theta", "9"),
            ("coxeter", "--k", "1", "--max-n", "9"),
            ("stratum", "--theta", "1", "--max-k", "9"),
            ("verify", "--k", "0", "--max-a", "9"),
        ],
    )
    def test_cap_on_a_subcommand_that_ignores_it_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
        assert "unrecognized arguments: --max-" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (("table", "--group", "b", "--a", "2", "--max-n", "20"), "--max-n"),
            (("table", "--group", "b", "--a", "2", "--n", "3"), "--n"),
            (("table", "--group", "sym", "--n", "2", "--a", "9", "--max-a", "50"), "--a"),
            (("table", "--group", "sym", "--n", "2", "--max-a", "50"), "--max-a"),
            (("verify", "--theta", "2", "--max-k", "20"), "--max-k"),
            (("verify", "--k", "2", "--max-theta", "30"), "--max-theta"),
            (("label", "--lambda", "2,1", "--t", "5", "--alpha", "9"), "--t"),
            (("label", "--lambda", "2,1", "--beta", "1"), "--beta"),
        ],
    )
    def test_flag_the_run_does_not_read_is_usage_error(self, capsys, argv, flag):
        status, out, err = run(capsys, *argv)
        assert status == 2
        assert out == ""
        assert err.startswith(f"error: {flag} is not read ")
        assert err.endswith("; drop it\n")

    def test_verify_reads_both_caps_with_both_flags(self, capsys):
        argv = ("verify", "--theta", "1", "--k", "1", "--max-theta", "1", "--max-k", "1")
        status, _, err = run(capsys, *argv)
        assert status == 0
        assert err == ""

    @pytest.mark.parametrize("argv,name", CHEAP)
    def test_quiet_silences_raised_cap(self, capsys, argv, name):
        status, _, err = run(capsys, *argv, f"--max-{name}", str(cli.CAPS[name] + 1), "-q")
        assert status == 0
        assert err == ""

    @pytest.mark.parametrize("argv,name", CHEAP)
    def test_cap_at_default_is_silent(self, capsys, argv, name):
        status, _, err = run(capsys, *argv, f"--max-{name}", str(cli.CAPS[name]))
        assert status == 0
        assert err == ""


class TestLibraryFailures:
    @pytest.mark.parametrize(
        "exc,shown", [(KeyError("injected"), "'injected'"), (ZeroDivisionError("injected"), "injected")]
    )
    def test_any_library_exception_exits_1(self, capsys, monkeypatch, exc, shown):
        def failing(lam):
            raise exc

        monkeypatch.setattr(cli, "degree_u", failing)
        status, out, err = run(capsys, "degree", "--group", "u", "--lambda", "2,1")
        assert status == 1
        assert out == ""
        assert err == f"internal failure: {shown}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("exc", [KeyError, ZeroDivisionError])
    def test_failure_inside_verify_is_internal(self, capsys, monkeypatch, exc):
        def failing(ks):
            raise exc("injected")

        monkeypatch.setattr(dl, "coxeter_checks", failing)
        status, out, err = run(capsys, "verify", "--k", "1")
        assert status == 1
        assert out == ""
        assert err.startswith("internal failure: ")

    def test_rank_cap_error_is_internal(self, capsys, monkeypatch):
        # no CLI input reaches a rank cap, so one raised is an engine bug
        assert cli.FOUNDATION_RANK < min(wc.BRUTE_FORCE_RANK_CAP, hc.ORACLE_RANK_CAP)

        def capped(a):
            raise RankCapError("injected")

        monkeypatch.setattr(wc, "signed_class_sizes", capped)
        status, out, err = run(capsys, "verify", "-q")
        assert status == 1
        assert out == ""
        assert err == "internal failure: injected\n"

    def test_keyboard_interrupt_is_not_caught(self, monkeypatch):
        def interrupted(lam):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "degree_u", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["degree", "--lambda", "2,1"])


class TestCheckEncoding:
    def test_verify_json_uses_the_check_encoder(self, capsys):
        status, out, _ = run(capsys, "verify", "--theta", "2", "--format", "json")
        report = dl.verify_stratum(2)
        assert status == 0
        assert json.loads(out) == {"ok": True, "checks": report.to_json()["checks"]}
        assert report.to_json()["checks"] == [c.to_json() for c in report.checks]

    def test_failed_verify_sets_document_status(self, capsys, monkeypatch):
        monkeypatch.setattr(
            dl, "coxeter_checks", lambda ks: [dl.CheckResult("injected", False)]
        )
        status, out, _ = run(capsys, "verify", "--k", "0", "--format", "json")
        assert status == 1
        assert json.loads(out) == {
            "ok": False,
            "checks": [{"name": "injected", "passed": False, "details": ""}],
        }


# the pinned CLI outputs that tier-1 runs in-process, by argv
PINNED = {row.argv: row for row in rows(GOLDEN / "cli_outputs.txt")}


def pinned(command: str) -> str:
    return PINNED[tuple(command.split())].digest


def _sha256(text: str) -> str:
    return sha256(text.encode())


@pytest.mark.parametrize("row", PINNED.values(), ids=lambda row: " ".join(row.argv))
def test_pinned_output(capsys, row):
    status = main(list(row.argv))
    assert (status, _sha256(capsys.readouterr().out)) == (row.status, row.digest)


def test_pinned_rows_repeat_with_every_memo_warm(capsys, all_memos):
    # the second round runs with every memo the first one filled, and the
    # char-b chain reads moves the table left: a memo that a later call
    # changes in place fails it
    commands = (
        "table --group b --a 7 --max-a 7 -q --format json",
        "char-b --label 5,3,1/4,2,1 --class 2,2,1,1/3,2,2,1,1,1 -q --format json",
    )
    all_memos()
    for _ in range(2):
        for command in commands:
            row = PINNED[tuple(command.split())]
            assert (main(list(row.argv)), _sha256(capsys.readouterr().out)) == (row.status, row.digest)


def test_verify_runs_twice_in_process_under_python_O():
    # -O strips asserts, so every guard verify needs must raise on its own;
    # the second run reads every memo the first one filled
    row = PINNED[tuple("verify --theta 10 --max-theta 10 -q --format json".split())]
    script = (
        "import hashlib, io\n"
        "from contextlib import redirect_stdout\n"
        "from unicoh.cli import main\n"
        "for _ in range(2):\n"
        "    with redirect_stdout(io.StringIO()) as out:\n"
        f"        status = main({list(row.argv)!r})\n"
        "    print(status, hashlib.sha256(out.getvalue().encode()).hexdigest())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=child_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{row.status} {row.digest}"] * 2


class TestPinnedRows:
    def test_deep_rows_parse_and_repeat_no_row(self):
        deep = {row.argv for row in rows(GOLDEN / "cli_outputs_deep.txt")}
        assert deep and not PINNED.keys() & deep

    @pytest.mark.parametrize("text, message", [
        ("0 " + "ab" * 32 + " verify -q\n0 " + "cd" * 32 + " verify -q\n", "second row for verify -q"),
        ("0 " + "ab" * 31 + " verify -q\n", "not a row"),
        ("0 " + "AB" * 32 + " verify -q\n", "not a row"),
        ("0 " + "ab" * 32 + "\n", "not a row"),
        ("x " + "ab" * 32 + " verify\n", "not a row"),
    ])
    def test_malformed_or_repeated_row_is_an_error(self, tmp_path, text, message):
        path = tmp_path / "rows.txt"
        path.write_text("# a comment\n\n" + text)
        with pytest.raises(ValueError, match=message):
            rows(path)


class TestBenchGolden:
    def test_bench_digests_are_the_pinned_rows(self):
        golden = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text())
        assert pinned("verify --theta 10 --max-theta 10 -q --format json") == golden["verify-cold"]
        assert pinned("table --group b --a 7 --max-a 7 -q --format json") == golden["char-tables"]


class TestOneFormPerRun:
    """`render` builds only the requested form, and a fault while building it
    is an internal failure like any other."""

    @staticmethod
    def failing(*args):
        raise RuntimeError("injected formatting fault")

    def test_json_runs_format_no_labels(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_fmt_labels", self.failing)
        for command in ("stratum --theta 3 --format json", "coxeter --k 3 -q --format json"):
            assert main(command.split()) == 0
            assert _sha256(capsys.readouterr().out) == pinned(command)

    def test_json_table_run_builds_no_cells(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_compact", self.failing)
        status, out, _ = run(capsys, "table", "--group", "b", "--a", "3", "--format", "json")
        assert status == 0
        assert json.loads(out) == wc.character_table_typeb(3).to_json()

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_formatting_fault_is_internal_failure(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(cli, "_fmt_labels", self.failing)
        status, out, err = run(capsys, "stratum", "--theta", "3", "-v", "--format", fmt)
        assert status == 1
        assert out == ""
        assert err == "internal failure: injected formatting fault\n"

    def test_text_and_csv_runs_build_no_payload(self, capsys, monkeypatch):
        monkeypatch.setattr(dl.CohomologyTable, "to_json", self.failing)
        monkeypatch.setattr(dl.CheckResult, "to_json", self.failing)
        for fmt in ("table", "csv"):
            command = f"stratum --theta 3 -q --format {fmt}"
            assert main(command.split()) == 0
            assert _sha256(capsys.readouterr().out) == pinned(command)
            status, out, _ = run(capsys, "verify", "--theta", "3", "--format", fmt)
            assert status == 0 and "FAIL" not in out


class TestBrokenPipe:
    def test_reader_closing_early_exits_without_traceback(self):
        # about 280 kB of JSON, more than a pipe holds, so the write is still
        # blocked when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "unicoh.cli", "stratum", "--theta", "14", "--max-theta", "14",
             "-q", "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == cli.BROKEN_PIPE_STATUS
        assert err == b""
