"""One shared analysis run for the read-only gate tests.

Analysing the whole package takes seconds, and the gate tests only read
the result, so they share a single session-scoped run of every rule over
the shipped tree plus the LEAK fixture module (whose true positives the
leak gate checks).  Tests that analyse a modified copy of a tree (pragma
stripping, reflowed sinks, baseline round-trips, CLI runs) still run
their own analyses.
"""

import dataclasses
import pathlib

import pytest

from repro.analysis import analyze_package

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
LEAK_MODULES = [("repro._fixture_leak_channels",
                 FIXTURES / "leak_channels.py")]
FIXTURE_PREFIX = "repro._fixture_"


def view(report, families=None, shipped_only=False):
    """``report`` restricted to the rule ``families`` (all when None)
    and, with ``shipped_only``, to findings in the shipped package."""
    prefixes = tuple(families or ())

    def keep_rule(rule):
        return not prefixes or rule.startswith(prefixes)

    return dataclasses.replace(
        report,
        findings=[f for f in report.findings
                  if keep_rule(f.rule)
                  and not (shipped_only
                           and f.entry_module.startswith(FIXTURE_PREFIX))],
        rules=[r for r in report.rules if keep_rule(r)],
    )


@pytest.fixture(scope="session")
def analysis_run():
    """Every rule over the shipped tree and the LEAK fixture module."""
    return analyze_package(extra_modules=LEAK_MODULES)


@pytest.fixture(scope="session")
def shipped_report(analysis_run):
    """Every rule's findings in the shipped package alone."""
    return view(analysis_run, shipped_only=True)
