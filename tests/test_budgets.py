import sys

import pytest

from chaoskit.budgets import BudgetError, ENV_OVERRIDE, cap, charge


def test_default_caps():
    assert cap("word_len") == 16
    assert cap("power") == 12
    assert cap("prefix_len") == 2 ** 17
    charge("word_len", 16)
    with pytest.raises(BudgetError, match=r"word_len budget exceeded: 17 > 16"):
        charge("word_len", 17)
    with pytest.raises(KeyError):
        cap("patience")


def test_override_scales_all_caps(monkeypatch):
    monkeypatch.setenv(ENV_OVERRIDE, "2.0")
    assert cap("word_len") == 32
    charge("word_len", 17)
    with pytest.raises(BudgetError):
        charge("word_len", 33)
    assert cap("iter_steps") == 8192


def test_override_floor_is_one(monkeypatch):
    monkeypatch.setenv(ENV_OVERRIDE, "0.001")
    assert cap("word_len") == 1
    charge("word_len", 1)


def test_override_validation(monkeypatch):
    monkeypatch.setenv(ENV_OVERRIDE, "fast")
    with pytest.raises(ValueError):
        cap("word_len")
    monkeypatch.setenv(ENV_OVERRIDE, "-3")
    with pytest.raises(ValueError):
        cap("word_len")
    monkeypatch.setenv(ENV_OVERRIDE, "0")
    with pytest.raises(ValueError):
        cap("word_len")
    for raw in ("nan", "inf", "-inf", "1e400"):
        monkeypatch.setenv(ENV_OVERRIDE, raw)
        with pytest.raises(ValueError, match="positive finite float"):
            cap("word_len")


def test_huge_override_caps_at_maxsize(monkeypatch):
    # 2**20 * 1e305 overflows a float; the cap stays an int.
    monkeypatch.setenv(ENV_OVERRIDE, "1e305")
    assert cap("enum_nodes") == sys.maxsize
    charge("enum_nodes", 2 ** 40)
