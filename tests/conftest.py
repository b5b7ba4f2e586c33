import pytest

from aperylike.recurrence import Poly, RecurrenceSpec

_ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance_record():
    """Collect 'criterion N' result lines for the terminal summary."""
    def record(number: int, ok: bool, detail: str):
        _ACCEPTANCE_LINES.append((number, ok, detail))
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number, ok, detail in sorted(_ACCEPTANCE_LINES):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line("criterion %d: %s  %s" % (number, status, detail))


def printed_asz(alpha, beta, gamma) -> RecurrenceSpec:
    """The cubic ASZ companion of the weight-one relation as printed,

    (n+1)^3 s(n+1) = -(2n+1)(a n^2 + a n + a - 2b) s(n) - (a^2 + 4c) n^3 s(n-1),

    kept apart from src as the reference for recurrence_from_gh(*asz_gh(...))."""
    return RecurrenceSpec((
        Poly([1, 1]) ** 3,
        Poly([1, 2]) * Poly([alpha - 2 * beta, alpha, alpha]),
        Poly([0, 0, 0, alpha * alpha + 4 * gamma]),
    ))
