"""Deeper closed strata, and the caps of the plain `unicoh verify` sweep."""

import pytest

from unicoh import cli
from unicoh import deligne_lusztig as dl
from unicoh.cli import main


@pytest.mark.parametrize("theta", range(7, 13))
def test_verify_stratum_beyond_the_sweep(theta):
    report = dl.verify_stratum(theta)
    assert report.ok, [c.details for c in report.checks if not c.passed]


@pytest.mark.parametrize("name", ("theta", "k"))
@pytest.mark.parametrize("cap", (7, 8))
def test_sweep_cap_above_the_sweep_depth_is_usage_error(capsys, name, cap):
    # 7 and 8 are within the default cap but above the sweep depth, which
    # would ignore them
    assert cli.SWEEP_DEPTH < cap <= cli.CAPS[name]
    assert main(["verify", f"--max-{name}", str(cap), "-q"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: --max-{name} {cap} is within its default {cli.CAPS[name]}, but the sweep stops at "
        f"{name} = {cli.SWEEP_DEPTH}; verify a deeper {name} with --{name}\n"
    )


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
