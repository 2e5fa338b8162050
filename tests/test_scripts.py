"""Smoke tests for the scripts in scripts/, run as a user would run them."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from unicoh import RepMultiset, VerificationError, closed_stratum_cohomology
from unicoh import deligne_lusztig as dl
from unicoh.cli import BROKEN_PIPE_STATUS
from unicoh.deligne_lusztig import CohomologyEntry, CohomologyTable

from child_env import child_env

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_script(name: str, *argv: str) -> subprocess.CompletedProcess:
    # under -O: a check in a script must not be an assert, which -O strips
    return subprocess.run(
        [sys.executable, "-O", str(SCRIPTS / name), *argv],
        capture_output=True, text=True, env=child_env(), timeout=300,
    )


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spectral_page_script():
    proc = run_script("spectral_page.py", "--theta", "3", "--dims")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "spectral_page_theta3_dims.txt").read_text()


# each prints well over a pipe's 64 kB, so a write is still to come when
# the reader goes away: 147 kB and 173 kB
@pytest.mark.parametrize("argv", [
    ("spectral_page.py", "--theta", "14"),
    ("stratum_tables.py", "--max-theta", "14"),
])
def test_reader_closing_early_exits_141_without_traceback(argv):
    name, *rest = argv
    proc = subprocess.Popen(
        [sys.executable, str(SCRIPTS / name), *rest],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == BROKEN_PIPE_STATUS
    assert err == b""


def test_spectral_page_faulty_term_fails_before_any_row(monkeypatch, capsys):
    # the bottom cell (column 0, degree 0) is printed last; a fault there must
    # stop the script before it prints anything
    script = load_script("spectral_page.py")
    real = dl.stratum_term

    def faulty(theta, theta_prime, a):
        if (theta_prime, a) == (0, 0):
            raise VerificationError("injected")
        return real(theta, theta_prime, a)

    monkeypatch.setattr(dl, "stratum_term", faulty)
    monkeypatch.setattr(sys, "argv", ["spectral_page.py", "--theta", "3"])
    with pytest.raises(VerificationError, match="injected"):
        script.main()
    assert capsys.readouterr().out == ""


def test_stratum_tables_script_exports_closed_formula(tmp_path):
    out = tmp_path / "tables.json"
    proc = run_script("stratum_tables.py", "--max-theta", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    documents = json.loads(out.read_text())
    assert len(documents) == 4
    for theta, document in enumerate(documents):
        expected = json.loads(json.dumps(closed_stratum_cohomology(theta).to_json()))
        assert document == expected


def test_stratum_tables_export_digest(tmp_path):
    out = tmp_path / "tables.json"
    proc = run_script("stratum_tables.py", "--max-theta", "6", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "12adfce6ff882f980e0527a5810c59acc685d58131e526b5eb433e0a7714a47f"
    )


def test_stratum_tables_negative_cap_is_usage_error():
    proc = run_script("stratum_tables.py", "--max-theta", "-1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--max-theta must be nonnegative" in proc.stderr


def test_stratum_tables_unwritable_out_is_usage_error(tmp_path):
    out = tmp_path / "missing" / "tables.json"
    proc = run_script("stratum_tables.py", "--max-theta", "0", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write {out}: No such file or directory\n"
    assert "Traceback" not in proc.stderr


def test_stratum_tables_export_gate_fails_loudly(tmp_path, monkeypatch, capsys):
    # a disagreement between the engine and the closed formula must reach
    # verify_stratum's check and exit 1 with the mismatch printed, also
    # under python -O
    script = load_script("stratum_tables.py")
    real = dl.closed_stratum_cohomology

    def wrong_closed(theta):
        table = real(theta)
        first = table.entries[0]
        entries = (CohomologyEntry(first.degree, first.frobenius_exponent, RepMultiset()),)
        return CohomologyTable(table.variety, entries + table.entries[1:])

    monkeypatch.setattr(dl, "closed_stratum_cohomology", wrong_closed)
    out = tmp_path / "tables.json"
    monkeypatch.setattr(sys, "argv", ["stratum_tables.py", "--max-theta", "1", "--out", str(out)])
    assert script.main() == 1
    err = capsys.readouterr().err
    assert "FAIL stratum-equals-closed-formula (theta=0): H^0 exponent 0: " in err
    assert "!= RepMultiset({})\n" in err
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing/tables.json", "a-file/tables.json", "."])
def test_stratum_tables_unwritable_out_fails_before_any_row(tmp_path, target):
    # the check runs before the loop: no theta row is printed and no table built
    (tmp_path / "a-file").write_text("")
    out = tmp_path / target
    proc = run_script("stratum_tables.py", "--max-theta", "1", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in proc.stderr
