"""A failed dist test explains itself.

Every data-parallel strategy a test in this directory binds is
remembered, and recovery is traced; when the test fails, its report
gains a ``repro.dist fault report`` section — the ``CommStats`` fault
columns per epoch, the ``fault_log`` and every ``recovery``-phase span —
instead of leaving a ``RuntimeWarning`` as the only clue.
"""

import pytest

from repro import obs
from repro.dist import DataParallelStrategy

FAULT_COLUMNS = ("faults", "retries", "rebuilds", "recovery_s", "recovery_bytes")

_BOUND: list[DataParallelStrategy] = []


@pytest.fixture(autouse=True)
def _dist_flight_recorder(monkeypatch):
    _BOUND.clear()
    bind = DataParallelStrategy.bind

    def recording_bind(self, engine):
        _BOUND.append(self)
        return bind(self, engine)

    monkeypatch.setattr(DataParallelStrategy, "bind", recording_bind)
    # Recovery spans need a live tracer; tests that install their own
    # (after this fixture) simply shadow it.
    previous = obs.set_tracer(obs.Tracer())
    yield
    obs.set_tracer(previous)


def fault_report(strategies, spans) -> str:
    lines = []
    for number, strategy in enumerate(strategies):
        lines.append(
            f"strategy {number}: workers={strategy.workers} "
            f"active={strategy._active} serial={strategy._serial}"
        )
        lines.append("  epoch  " + "  ".join(FAULT_COLUMNS))
        for epoch, row in sorted(strategy.comm.epochs.items()):
            cells = (f"{row[column]:>{len(column)}.6g}" for column in FAULT_COLUMNS)
            lines.append(f"  {epoch:>5}  " + "  ".join(cells))
        lines.extend(f"  fault_log: {entry}" for entry in strategy.fault_log)
    lines.extend(
        f"  span {span.name} rank={span.args.get('rank')} "
        f"[{span.start:.6f}, {span.end:.6f}]"
        for span in spans
        if span.phase == obs.RECOVERY
    )
    return "\n".join(lines)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    # Fixtures are still set up when the call phase reports, so the
    # tracer read here is the one the test ran under.
    if report.when == "call" and report.failed and _BOUND:
        report.sections.append(
            ("repro.dist fault report", fault_report(_BOUND, obs.tracer().spans))
        )
