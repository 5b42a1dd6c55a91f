"""Session hooks for the property-suite gate.

Each `property_suite` test runs once, in the main session.  These hooks
record its outcome and its case count (the `cases` argument of the marker,
else hypothesis's `max_examples`), and move `test_acceptance_07_property_suites`
to the end of the session so that it can check them all.
"""

import pytest

GATE = "test_acceptance_07_property_suites"

# node id -> [outcome, cases]; the outcome stays "not run" until a report
# for the test arrives
SUITES = pytest.StashKey[dict]()


def pytest_collection_modifyitems(config, items):
    items.sort(key=lambda item: item.name == GATE)
    suites = config.stash[SUITES] = {}
    for item in items:
        marker = item.get_closest_marker("property_suite")
        if marker is not None:
            settings = getattr(item.obj, "_hypothesis_internal_use_settings",
                               None)
            cases = marker.kwargs.get("cases",
                                      settings and settings.max_examples)
            suites[item.nodeid] = ["not run", cases or 0]


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    suite = item.config.stash[SUITES].get(item.nodeid)
    if (suite is not None and suite[0] in ("not run", "passed")
            and (report.when == "call" or not report.passed)):
        suite[0] = report.outcome


@pytest.fixture
def property_suites(request):
    return request.config.stash.get(SUITES, {})
