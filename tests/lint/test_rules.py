"""Per-rule golden-fixture tests: each checker fires at the exact line
on its tripping fixture and stays silent on the clean one."""

from __future__ import annotations

import pytest

from repro.lint import run_lint


def hits(report, rule=None):
    """(rule, path, line) triples, optionally filtered to one rule."""
    return [
        (f.rule, f.path, f.line)
        for f in report.findings
        if rule is None or f.rule == rule
    ]


# -- LAYER -------------------------------------------------------------------


def test_layer001_and_layer002_fire_on_leaky_serving_module(make_tree):
    root = make_tree({"repro/serving/leak.py": "layering_bad.py"})
    report = run_lint(root)
    assert ("LAYER001", "repro/serving/leak.py", 2) in hits(report)
    assert ("LAYER001", "repro/serving/leak.py", 8) in hits(report)
    assert ("LAYER002", "repro/serving/leak.py", 4) in hits(report)


def test_layer_rules_silent_on_clean_serving_module(make_tree):
    root = make_tree({"repro/serving/clean.py": "layering_clean.py"})
    report = run_lint(root, rule_ids_filter=["LAYER"])
    assert report.findings == []


def test_layer001_fires_outside_serving_too(make_tree):
    # features/ and core/ were decoupled from the simulator in PR 4.
    root = make_tree({"repro/features/leak.py": "layering_bad.py"})
    report = run_lint(root, rule_ids_filter=["LAYER001"])
    assert ("LAYER001", "repro/features/leak.py", 2) in hits(report)


def test_layer001_ignores_unconstrained_layers(make_tree):
    # data/ may import the simulator: no finding.
    root = make_tree({"repro/data/uses_sim.py": "layering_bad.py"})
    report = run_lint(root, rule_ids_filter=["LAYER001"])
    assert report.findings == []


def test_layer003_reports_an_import_cycle(make_tree):
    root = make_tree({
        "repro/alpha.py": "cycle_a.py",
        "repro/beta.py": "cycle_b.py",
    })
    report = run_lint(root, rule_ids_filter=["LAYER003"])
    assert hits(report) == [("LAYER003", "repro/alpha.py", 2)]
    assert "repro.alpha <-> repro.beta" in report.findings[0].message


def test_layer003_no_cycle_without_the_back_edge(make_tree):
    root = make_tree({"repro/alpha.py": "cycle_a.py"})
    report = run_lint(root, rule_ids_filter=["LAYER003"])
    assert report.findings == []


# -- DEP ---------------------------------------------------------------------


def test_dep002_and_dep003_fire_in_the_serving_stack(make_tree):
    root = make_tree({"repro/serving/heavy.py": "deps_bad_serving.py"})
    report = run_lint(root)
    assert ("DEP002", "repro/serving/heavy.py", 2) in hits(report)
    # Lazy does not excuse the wrong home:
    assert ("DEP002", "repro/serving/heavy.py", 7) in hits(report)
    assert ("DEP003", "repro/serving/heavy.py", 3) in hits(report)
    [warning] = [f for f in report.findings if f.rule == "DEP003"]
    assert warning.severity == "warning"


def test_dep001_fires_on_import_time_heavy_import_in_allowed_home(make_tree):
    root = make_tree({"repro/ml/heavy.py": "deps_bad_ml.py"})
    report = run_lint(root)
    assert hits(report, "DEP001") == [("DEP001", "repro/ml/heavy.py", 2)]
    assert hits(report, "DEP002") == []


def test_dep_rules_silent_on_lazy_import_in_allowed_home(make_tree):
    root = make_tree({"repro/ml/clean.py": "deps_clean.py"})
    report = run_lint(root, rule_ids_filter=["DEP"])
    assert report.findings == []


# -- LOCK --------------------------------------------------------------------


def test_lock001_fires_on_unlocked_mutation(make_tree):
    root = make_tree({"repro/serving/counter.py": "locks_bad.py"})
    report = run_lint(root, rule_ids_filter=["LOCK"])
    assert hits(report) == [("LOCK001", "repro/serving/counter.py", 15)]
    assert "Counter.count" in report.findings[0].message


def test_lock001_silent_when_every_mutation_holds_the_lock(make_tree):
    root = make_tree({"repro/serving/counter.py": "locks_clean.py"})
    report = run_lint(root, rule_ids_filter=["LOCK"])
    assert report.findings == []


def test_lock001_applies_outside_the_serving_stack_too(make_tree):
    # Lock discipline is not path-scoped: a racy class is racy anywhere.
    root = make_tree({"repro/analysis/counter.py": "locks_bad.py"})
    report = run_lint(root, rule_ids_filter=["LOCK"])
    assert hits(report) == [("LOCK001", "repro/analysis/counter.py", 15)]


# -- DET ---------------------------------------------------------------------


def test_det_rules_fire_in_a_scoring_path(make_tree):
    root = make_tree({"repro/serving/det.py": "det_bad.py"})
    report = run_lint(root, rule_ids_filter=["DET"])
    assert hits(report) == [
        ("DET001", "repro/serving/det.py", 8),
        ("DET002", "repro/serving/det.py", 9),
        ("DET002", "repro/serving/det.py", 10),
        ("DET003", "repro/serving/det.py", 11),
    ]


def test_det_rules_silent_on_deterministic_counterparts(make_tree):
    root = make_tree({"repro/serving/det.py": "det_clean.py"})
    report = run_lint(root, rule_ids_filter=["DET"])
    assert report.findings == []


@pytest.mark.parametrize("relpath", [
    "repro/telemetry/stamp.py",   # allowlisted: timestamps are its job
    "repro/store/stamp.py",
    "repro/registry/stamp.py",
    "repro/analysis/stamp.py",    # out of scope entirely
])
def test_det_rules_respect_scope_and_allowlist(make_tree, relpath):
    root = make_tree({relpath: "det_bad.py"})
    report = run_lint(root, rule_ids_filter=["DET"])
    assert report.findings == []


# -- WIRE --------------------------------------------------------------------


def test_wire001_fires_on_unregistered_codes(make_tree):
    root = make_tree({
        "repro/gateway/schema.py": "wire_schema.py",
        "repro/gateway/handlers.py": "wire_bad.py",
    })
    report = run_lint(root, rule_ids_filter=["WIRE001"])
    assert hits(report) == [
        ("WIRE001", "repro/gateway/handlers.py", 13),  # string literal
        ("WIRE001", "repro/gateway/handlers.py", 17),  # unregistered E_*
    ]


def test_wire002_fires_on_nonconforming_metric_names(make_tree):
    root = make_tree({
        "repro/gateway/schema.py": "wire_schema.py",
        "repro/gateway/handlers.py": "wire_bad.py",
    })
    report = run_lint(root, rule_ids_filter=["WIRE002"])
    assert hits(report) == [
        ("WIRE002", "repro/gateway/handlers.py", 6),   # counter sans _total
        ("WIRE002", "repro/gateway/handlers.py", 7),   # histogram sans _seconds
        ("WIRE002", "repro/gateway/handlers.py", 8),   # gauge ending _total
        ("WIRE002", "repro/gateway/handlers.py", 9),   # not snake_case
        ("WIRE002", "repro/gateway/handlers.py", 21),  # counter_fn sans _total
    ]


def test_wire002_enforces_signal_series_prefix(make_tree):
    # repro.signals owns the signal_* namespace: an off-prefix metric in
    # the subsystem fires even though its suffix conventions are fine.
    root = make_tree({"repro/signals/metrics.py": "wire_signals_bad.py"})
    report = run_lint(root, rule_ids_filter=["WIRE002"])
    assert hits(report) == [("WIRE002", "repro/signals/metrics.py", 5)]
    assert "signal_" in report.findings[0].message


def test_wire002_silent_on_prefixed_signal_metrics(make_tree):
    root = make_tree({"repro/signals/metrics.py": "wire_signals_clean.py"})
    report = run_lint(root, rule_ids_filter=["WIRE002"])
    assert report.findings == []


def test_wire002_prefix_not_enforced_outside_the_owner(make_tree):
    # The same off-prefix metric elsewhere is fine — the reservation only
    # binds the owning subsystem.
    root = make_tree({"repro/serving/metrics.py": "wire_signals_bad.py"})
    report = run_lint(root, rule_ids_filter=["WIRE002"])
    assert report.findings == []


def test_wire_rules_silent_on_conforming_module(make_tree):
    root = make_tree({
        "repro/gateway/schema.py": "wire_schema.py",
        "repro/gateway/clean.py": "wire_clean.py",
    })
    report = run_lint(root, rule_ids_filter=["WIRE"])
    assert report.findings == []


def test_wire001_against_the_real_schema(make_tree, tmp_path):
    """Regression for the demoted runtime assert: a made-up error code
    must fail `repro lint` statically, with the *production* schema."""
    import shutil
    from pathlib import Path

    repo_src = Path(__file__).resolve().parents[2] / "src"
    root = make_tree({"repro/gateway/rogue.py": "wire_bad.py"})
    dest = root / "repro/gateway/schema.py"
    shutil.copy(repo_src / "repro/gateway/schema.py", dest)
    report = run_lint(root, rule_ids_filter=["WIRE001"])
    lines = [f.line for f in report.findings
             if f.path == "repro/gateway/rogue.py"]
    assert 13 in lines  # GatewayFault("made_up_code", ...)
    assert 17 in lines  # E_ROGUE is not one of the real constants
