"""Deeper closed strata, and the caps of the plain `unicoh verify` sweep."""

import pytest

from unicoh import cli
from unicoh import deligne_lusztig as dl
from unicoh.cli import main


@pytest.mark.parametrize("theta", range(7, 13))
def test_verify_stratum_beyond_the_sweep(theta):
    report = dl.verify_stratum(theta)
    assert report.ok, [c.details for c in report.checks if not c.passed]


@pytest.mark.parametrize(
    ("argv", "checks"),
    [
        (("--max-theta", "7"), 149),
        (("--max-k", "7"), 174),
        (("--max-theta", "8", "--max-k", "8"), 218),
    ],
)
def test_sweep_cap_above_the_sweep_depth_deepens_the_sweep(capsys, argv, checks):
    # 7 and 8 are within the default cap but above the default sweep depth
    assert cli.SWEEP_DEPTH < 7 and 8 <= min(cli.CAPS["theta"], cli.CAPS["k"])
    assert main(["verify", *argv, "-q"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == f"OK: {checks}/{checks} checks passed"
    assert err == ""


def test_deeper_sweep_adds_the_lines_of_the_deeper_stratum(capsys):
    outputs = []
    for argv in ((), ("--max-theta", "7"), ("--theta", "7", "--max-theta", "7")):
        assert main(["verify", *argv]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        outputs.append(out.splitlines()[:-1])
    default, deeper, theta7 = outputs
    assert deeper == default + theta7


@pytest.mark.parametrize(
    ("argv", "checks"),
    [
        ((), 144),
        (("--max-theta", "6", "--max-k", "6"), 144),
        (("--max-theta", "3"), 129),
    ],
)
def test_sweep_cap_at_or_below_the_sweep_depth(capsys, argv, checks):
    assert main(["verify", *argv, "-q"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == f"OK: {checks}/{checks} checks passed"
    assert err == ""
