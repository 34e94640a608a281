"""The normalized ``REPRO_*`` environment-knob readers.

Every subsystem parses its knobs through :mod:`repro.core.env`, so
these tests are the single lock on the accepted spellings: flags take
``1/true/yes/on`` / ``0/false/no/off``, numbers parse strictly, and
garbage raises an :class:`EnvError` that names the variable, the value
and what was expected — never a silent default.
"""

from __future__ import annotations

import pytest

from repro.core.env import (
    EnvError,
    env_choice,
    env_flag,
    env_float,
    env_int,
    env_str,
)

VAR = "REPRO_TEST_KNOB"


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    monkeypatch.delenv(VAR, raising=False)


def set_var(monkeypatch, value):
    monkeypatch.setenv(VAR, value)


class TestEnvStr:
    def test_unset_returns_default(self):
        assert env_str(VAR) is None
        assert env_str(VAR, "fallback") == "fallback"

    def test_empty_and_blank_count_as_unset(self, monkeypatch):
        for raw in ("", "   "):
            set_var(monkeypatch, raw)
            assert env_str(VAR, "fallback") == "fallback"

    def test_value_is_stripped(self, monkeypatch):
        set_var(monkeypatch, "  value  ")
        assert env_str(VAR) == "value"


class TestEnvFlag:
    @pytest.mark.parametrize("raw", ["1", "true", "YES", " On "])
    def test_truthy_spellings(self, monkeypatch, raw):
        set_var(monkeypatch, raw)
        assert env_flag(VAR) is True

    @pytest.mark.parametrize("raw", ["0", "false", "NO", " off "])
    def test_falsy_spellings(self, monkeypatch, raw):
        set_var(monkeypatch, raw)
        assert env_flag(VAR, default=True) is False

    def test_unset_keeps_default(self):
        assert env_flag(VAR, default=True) is True
        assert env_flag(VAR, default=False) is False

    def test_garbage_is_a_clear_error(self, monkeypatch):
        set_var(monkeypatch, "maybe")
        with pytest.raises(EnvError) as exc:
            env_flag(VAR)
        assert VAR in str(exc.value)
        assert "maybe" in str(exc.value)


class TestEnvInt:
    def test_parses_and_defaults(self, monkeypatch):
        assert env_int(VAR, 7) == 7
        set_var(monkeypatch, "42")
        assert env_int(VAR, 7) == 42

    def test_garbage_names_the_variable(self, monkeypatch):
        set_var(monkeypatch, "four")
        with pytest.raises(EnvError) as exc:
            env_int(VAR, 1)
        assert exc.value.name == VAR
        assert exc.value.value == "four"

    def test_minimum_enforced(self, monkeypatch):
        set_var(monkeypatch, "0")
        with pytest.raises(EnvError):
            env_int(VAR, 1, minimum=1)
        assert env_int(VAR, 1, minimum=0) == 0


class TestEnvFloat:
    def test_parses_and_defaults(self, monkeypatch):
        assert env_float(VAR) is None
        assert env_float(VAR, 0.5) == 0.5
        set_var(monkeypatch, "0.01")
        assert env_float(VAR) == 0.01

    def test_garbage_rejected(self, monkeypatch):
        set_var(monkeypatch, "one percent")
        with pytest.raises(EnvError):
            env_float(VAR)

    def test_minimum_enforced(self, monkeypatch):
        set_var(monkeypatch, "-0.5")
        with pytest.raises(EnvError):
            env_float(VAR, minimum=0.0)


class TestEnvChoice:
    CHOICES = ("codegen", "batch")

    def test_accepts_declared_choices(self, monkeypatch):
        assert env_choice(VAR, "codegen", self.CHOICES) == "codegen"
        set_var(monkeypatch, "batch")
        assert env_choice(VAR, None, self.CHOICES) == "batch"

    def test_rejects_outsiders_listing_alternatives(self, monkeypatch):
        set_var(monkeypatch, "turbo")
        with pytest.raises(EnvError) as exc:
            env_choice(VAR, None, self.CHOICES)
        for choice in self.CHOICES:
            assert choice in str(exc.value)


class TestCompatibility:
    def test_enverror_is_a_valueerror(self):
        # Callers that guarded with ``except ValueError`` keep working.
        assert issubclass(EnvError, ValueError)
