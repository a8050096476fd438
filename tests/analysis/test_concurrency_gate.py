"""CI gate: the shipped tree must satisfy the CONC/FORK/ATOM invariants.

Mirrors ``test_determinism_gate.py`` for the concurrency-readiness rules:
the moment a change mutates lock-guarded state outside its lock, ships a
live handle into a worker payload, drops the spawn context, or skips a
step of the fsync → replace → dir-fsync protocol without a documented
``# audit:`` pragma, this fails — in every pytest run and in CI.

Also locks in the operational surface the new families share with the old
ones: pragma suppression, baseline round-trips, and SARIF export.
"""

import json
import pathlib

import pytest

from repro.analysis import (
    analyze_package,
    report_to_sarif,
    write_baseline,
)
from repro.cli import main

from .conftest import view

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
CONC_MODULES = [("repro._fixture_conc_discipline",
                 FIXTURES / "conc_discipline.py")]

RACY_PACKAGE_SOURCE = '''\
import threading


class RacyGauge:
    def __init__(self):
        self._lock = threading.Lock()
        self.level = 0

    def bump(self):
        self.level += 1
'''


@pytest.fixture
def full_report(shipped_report):
    """The CONC/FORK/ATOM findings of the shared shipped-tree analysis."""
    return view(shipped_report, ["CONC", "FORK", "ATOM"])


def test_concurrency_gate(full_report):
    report = full_report
    assert report.ok, (
        "concurrency/durability invariants broken — fix the finding or "
        "document it with an '# audit:' pragma:\n" + report.format_text()
    )


def test_gate_actually_walked_the_tree(full_report):
    # Anti-vacuity: a refactor that empties the escape pass or the rule
    # registration must fail here, not pass the gate for free.
    report = full_report
    assert set(report.rules) == {"CONC001", "CONC002", "CONC003", "CONC004",
                                 "FORK001", "FORK002", "FORK003",
                                 "ATOM001", "ATOM002"}
    assert report.functions_scanned >= 300, report.functions_scanned
    assert report.modules_scanned >= 50, report.modules_scanned


def test_pragma_suppresses_and_its_removal_resurfaces():
    documented = analyze_package(select=["CONC"],
                                 extra_modules=CONC_MODULES)
    doc = [f for f in documented.findings
           if f.entry_class == "DocumentedCounter"]
    assert len(doc) == 1
    assert doc[0].severity == "documented"
    assert "single-writer" in doc[0].pragma_reason

    source = (FIXTURES / "conc_discipline.py").read_text()
    pragma = ("        # audit: CONC001 -- single-writer by construction "
              "in this harness\n")
    assert pragma in source, "fixture pragma changed; update test"
    resurfaced = analyze_package(
        select=["CONC"], extra_modules=CONC_MODULES,
        source_overrides={str(FIXTURES / "conc_discipline.py"):
                          source.replace(pragma, "")})
    back = [f for f in resurfaced.findings
            if f.entry_class == "DocumentedCounter"]
    assert len(back) == 1
    assert back[0].severity == "violation"


def test_baseline_roundtrip_with_new_rules(tmp_path):
    report = analyze_package(select=["CONC"], extra_modules=CONC_MODULES)
    assert not report.ok
    path = tmp_path / "baseline.json"
    recorded = write_baseline(path, report)
    assert recorded == len(report.violations)
    again = analyze_package(select=["CONC"], extra_modules=CONC_MODULES,
                            baseline=path)
    assert again.ok, again.format_text()
    assert len([f for f in again.findings
                if f.severity == "baselined"]) == recorded


@pytest.fixture(scope="module")
def sarif_payload():
    report = analyze_package(select=["CONC", "FORK", "ATOM"],
                             extra_modules=CONC_MODULES)
    return report_to_sarif(report)


def test_sarif_declares_new_rules(sarif_payload):
    assert sarif_payload["version"] == "2.1.0"
    assert sarif_payload["$schema"].endswith("sarif-schema-2.1.0.json")
    rules = {r["id"]: r
             for r in sarif_payload["runs"][0]["tool"]["driver"]["rules"]}
    for rule_id in ("CONC001", "CONC002", "CONC003", "CONC004",
                    "FORK001", "FORK002", "FORK003",
                    "ATOM001", "ATOM002"):
        assert rule_id in rules
        assert rules[rule_id]["shortDescription"]["text"]


def test_sarif_results_reference_declared_rules(sarif_payload):
    run = sarif_payload["runs"][0]
    declared = {r["id"] for r in run["tool"]["driver"]["rules"]}
    results = run["results"]
    assert any(r["ruleId"].startswith("CONC") for r in results)
    for result in results:
        assert result["ruleId"] in declared
        assert result["level"] in ("error", "note")
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"]
        assert location["region"]["startLine"] >= 1
        assert result["partialFingerprints"]["reproAudit/v1"]


def test_cli_baseline_roundtrip_with_new_rules(tmp_path, capsys):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "gauge.py").write_text(RACY_PACKAGE_SOURCE)
    baseline = tmp_path / "baseline.json"

    assert main(["lint", "--package-dir", str(pkg),
                 "--select", "CONC"]) == 1
    capsys.readouterr()
    assert main(["lint", "--package-dir", str(pkg), "--select", "CONC",
                 "--baseline", str(baseline), "--update-baseline"]) == 0
    payload = json.loads(baseline.read_text())
    assert payload["findings"], "baseline should record the CONC finding"
    capsys.readouterr()
    assert main(["lint", "--package-dir", str(pkg), "--select", "CONC",
                 "--baseline", str(baseline)]) == 0
