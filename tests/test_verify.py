"""The certificates that live only in verify, with negative controls.

Each control patches a real defect into the code a check reads and asserts
that the named check of run_cell_checks catches it.
"""

import dataclasses

from scroll_ulrich import ScrollParams, enumerate_cases, verify
from scroll_ulrich.chow import Codim2Class
from scroll_ulrich.ulrich import SWAP_TAG

FULL_GRID = [
    (a, b, c)
    for a in range(4)
    for b in range(a, 4)
    for c in range(a + b + 1, a + b + 7)
]


def _status(cell, name):
    rows = [r for r in verify.run_cell_checks(cell) if r.check == name]
    assert len(rows) == 1
    return rows[0]


def test_involution_transport_checks_pass_on_grid():
    for cell in FULL_GRID[::3]:
        p = ScrollParams(*cell)
        verify._check_involution_orbits(p, enumerate_cases(p), enumerate_cases(p.swapped()))


def test_controls_pass_unpatched():
    for cell in [(0, 0, 2), (0, 1, 3)]:
        assert _status(cell, "ext-involution-orbits").ok
        assert _status(cell, "ulrich-scan-bounds").ok


def test_swapped_swap_tag_entry_is_caught(monkeypatch):
    monkeypatch.setitem(SWAP_TAG, "L", "M")
    monkeypatch.setitem(SWAP_TAG, "L_dual", "M_dual")
    row = _status((0, 0, 2), "ext-involution-orbits")
    assert not row.ok and "swap tags wrong" in row.detail


def test_c2_off_by_one_is_caught(monkeypatch):
    original = verify.enumerate_cases
    cell = (0, 1, 3)

    def knocked(params):
        records = original(params)
        if params == ScrollParams(*cell):
            r = records[0]
            records[0] = dataclasses.replace(r, c2=r.c2 + Codim2Class(0, 0, 1))
        return records

    monkeypatch.setattr(verify, "enumerate_cases", knocked)
    row = _status(cell, "ext-involution-orbits")
    assert not row.ok and "c2 not transported" in row.detail


def test_ulrich_at_x_three_is_caught(monkeypatch):
    original = verify.is_ulrich_line
    monkeypatch.setattr(verify, "is_ulrich_line", lambda p, d: d.x == 3 or original(p, d))
    row = _status((0, 1, 3), "ulrich-scan-bounds")
    assert not row.ok
