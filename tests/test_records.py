"""Contract of the record classes: frozen, hashable when equal, ordered where
documented, and importable without generating code."""

import copy
import pickle
import subprocess
import sys

import pytest

from unicoh import Partition, partitions_of, to_symbol
from unicoh.cli import Document
from unicoh.deligne_lusztig import CheckResult, coxeter_cohomology, verify_stratum
from unicoh.unipotent import SymbolLabel, hc_series, symbol
from unicoh.weyl_characters import character_table_typeb

from child_env import child_env


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # both are costly to import and nothing in the CLI needs them
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import unicoh.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# each builder makes a new record with the same value every time it is called
RECORDS = {
    "SymbolLabel": (lambda: SymbolLabel(1, (2, 1), ()), "t"),
    "HCSeries": (lambda: hc_series(Partition((3, 3, 2, 2, 1))), "n"),
    "CohomologyEntry": (lambda: coxeter_cohomology(2).entries[1], "degree"),
    "CohomologyTable": (lambda: coxeter_cohomology(2), "entries"),
    "CheckResult": (lambda: CheckResult("name", False, "details"), "passed"),
    "StratumVerification": (lambda: verify_stratum(2), "checks"),
    "CharacterTable": (lambda: character_table_typeb(2), "values"),
    "Document": (lambda: Document(str, dict, None, 1), "status"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned(name):
    build, field = RECORDS[name]
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_records_hash_equal(name):
    build, _ = RECORDS[name]
    first, second = build(), build()
    assert first is not second
    assert first == second and hash(first) == hash(second)


def test_table_lookups_read_the_entries():
    # a table is its two fields and nothing derived from them
    table = coxeter_cohomology(2)
    assert table.at(2) == tuple(e for e in table.entries if e.degree == 2) and len(table.at(2)) == 2
    assert table.at(5) == () and table.degrees() == [2, 3, 4]
    assert table == (table.variety, table.entries) and not hasattr(table, "__dict__")


class TestSymbolLabelOrder:
    def test_sorted_is_t_then_alpha_then_beta(self):
        labels = [to_symbol(lam) for n in range(13) for lam in partitions_of(n)]
        expected = sorted(labels, key=lambda l: (l.t, tuple(l.alpha), tuple(l.beta)))
        assert sorted(labels) == expected
        assert sorted(reversed(labels)) == expected

    @pytest.mark.parametrize("other", [1, (1, (2, 1), ()), "label", None])
    def test_order_against_a_non_label_raises(self, other):
        label = symbol(1, (2, 1), ())
        for compare in (
            lambda: label < other,
            lambda: label <= other,
            lambda: label > other,
            lambda: label >= other,
        ):
            with pytest.raises(TypeError):
                compare()

    def test_equal_only_to_labels(self):
        label = symbol(1, (2, 1), ())
        assert label != (1, Partition((2, 1)), Partition(()))
        assert label == SymbolLabel(1, Partition((2, 1)), Partition(()))
        assert label != symbol(1, (2,), (1,)) and label != symbol(3, (2, 1), ())

    def test_copy_and_pickle_round_trip(self):
        label = symbol(2, (3, 1), (2,))
        for clone in (copy.copy(label), copy.deepcopy(label), pickle.loads(pickle.dumps(label))):
            assert clone == label and hash(clone) == hash(label) and clone.rank == label.rank
