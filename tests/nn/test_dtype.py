"""Tests for the slab compute-dtype resolver (repro.nn.stacked.resolve_dtype).

Pins the precedence (explicit > $REPRO_DTYPE > float64), the supported
set, and that a malformed value raises ``ValueError`` naming its source
instead of NumPy's raw ``TypeError``.
"""

import numpy as np
import pytest

from repro.nn import DTYPE_ENV, SUPPORTED_DTYPES, resolve_dtype


class TestResolveDtype:
    def test_default_is_float64(self, monkeypatch):
        monkeypatch.delenv(DTYPE_ENV, raising=False)
        assert resolve_dtype() == np.dtype(np.float64)

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(DTYPE_ENV, "float64")
        assert resolve_dtype("float32") == np.dtype(np.float32)
        assert resolve_dtype(np.float32) == np.dtype(np.float32)

    def test_env_var_wins_over_default(self, monkeypatch):
        monkeypatch.setenv(DTYPE_ENV, "float32")
        assert resolve_dtype() == np.dtype(np.float32)

    def test_env_var_name_is_stable(self):
        # Documented in README / context.py; renaming it breaks users.
        assert DTYPE_ENV == "REPRO_DTYPE"

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ValueError, match="unsupported slab dtype"):
            resolve_dtype("float16")
        with pytest.raises(ValueError):
            resolve_dtype("int64")

    @pytest.mark.parametrize("value", ["fp32", "Float32", " float32"])
    def test_malformed_env_value_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv(DTYPE_ENV, value)
        with pytest.raises(ValueError) as info:
            resolve_dtype()
        assert f"${DTYPE_ENV}" in str(info.value)
        assert str(SUPPORTED_DTYPES) in str(info.value)

    @pytest.mark.parametrize("value", ["fp32", "Float32", " float32"])
    def test_malformed_argument_names_cohort_dtype(self, monkeypatch, value):
        monkeypatch.delenv(DTYPE_ENV, raising=False)
        with pytest.raises(ValueError, match="cohort_dtype"):
            resolve_dtype(value)

    def test_numpy_short_code_still_accepted(self, monkeypatch):
        monkeypatch.setenv(DTYPE_ENV, "f4")
        assert resolve_dtype() == np.dtype(np.float32)
