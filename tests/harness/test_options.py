"""The knob table (:mod:`repro.options`): strict parsing, unknown
names, and the README's copy of the table."""

from __future__ import annotations

import re
import warnings
from pathlib import Path

import pytest

from repro import options
from repro.options import KNOBS, UnknownKnobWarning

README = Path(__file__).resolve().parents[2] / "README.md"


@pytest.mark.parametrize(
    "name,value",
    [("REPRO_FUSED", "false"), ("REPRO_TRACE_SHM", "true"), ("REPRO_RESULTS_CACHE", "no")],
)
def test_boolean_knobs_accept_only_0_and_1(monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    with pytest.raises(ValueError, match=name):
        options.get(name)


@pytest.mark.parametrize("name", sorted(KNOBS))
def test_empty_means_unset(monkeypatch, name):
    monkeypatch.setenv(name, "")
    assert options.get(name) == KNOBS[name].default


def test_misspelled_name_at_a_call_site_raises():
    with pytest.raises(KeyError):
        options.get("REPRO_FUSD")


def test_unknown_name_warns_once_by_name(monkeypatch):
    monkeypatch.setenv("REPRO_FUSD", "0")
    monkeypatch.setattr(options, "_checked", False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        options.get("REPRO_FUSED")
        options.get("REPRO_WORKERS")
    named = [
        w for w in caught
        if issubclass(w.category, UnknownKnobWarning) and "REPRO_FUSD" in str(w.message)
    ]
    assert len(named) == 1


def test_readme_table_is_the_knob_table():
    """README "Environment flags" lists exactly the knobs, each with
    its outcome/execution kind."""
    section = README.read_text().split("## Environment flags", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| `(REPRO_\w+)` \| (outcome|execution) \|", section, re.M))
    assert rows == {
        name: "outcome" if knob.outcome else "execution" for name, knob in KNOBS.items()
    }
