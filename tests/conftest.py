import pytest

# one human-readable line per acceptance criterion in the summary
_CRITERIA = {
    "test_c1_token_bucket_oracle_equivalence": "1. token-bucket grid equals counter oracle + window bound",
    "test_c2_port_scan_behavior": "2. port-scan: scanner dropped, benign spared, revert after silence",
    "test_c3_classifier_equivalence": "3. classifier states and window registers equal tree/stats oracles",
    "test_c4_alu_correctness": "4. ALU: encode/decode, ewma replay, avg bounds, tuple permutation",
    "test_c5_context_fallback_oracle_equivalence": "5. context fallback equals linear-scan oracle",
    "test_c6_flow_context_model_equivalence": "6. flow-context store equals two-scan reference model incl. placement",
    "test_c7_mac_learning_golden": "7. learning-switch golden verdict files",
    "test_c8_long_flow_marking": "8. long-flow mark at packet 5 across 100 interleavings",
    "test_c9_replay_determinism": "9. byte-identical verdicts and stats on repeated seeded runs",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            if "test_acceptance.py" not in getattr(report, "nodeid", ""):
                continue
            name = report.nodeid.split("::")[-1]
            base = name.split("[")[0]
            if base in _CRITERIA:
                verdict = "PASS" if status == "passed" else "FAIL"
                criterion = _CRITERIA[base]
                number = int(criterion.split(".", 1)[0])
                lines.append((number, f"[{verdict}] {criterion}"))
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(set(lines)):
            terminalreporter.write_line(line)
