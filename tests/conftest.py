import re

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one verdict line per acceptance criterion at the end of the run,
    with the properties its test recorded (``record_property``)."""
    verdicts = {}
    for status, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL"), ("skipped", "SKIP")):
        for rep in terminalreporter.stats.get(status, []):
            m = _CRITERION.search(getattr(rep, "nodeid", ""))
            if m and getattr(rep, "when", "call") in ("call", "setup"):
                props = "".join(f" {k}={v}" for k, v in getattr(rep, "user_properties", ()))
                verdicts[int(m.group(1))] = label + props
    if not verdicts:
        return
    from test_acceptance import TITLES

    terminalreporter.section("acceptance criteria")
    for num in sorted(verdicts):
        title = TITLES.get(num, "")
        terminalreporter.write_line(f"criterion {num:2d} ({title}): {verdicts[num]}")
