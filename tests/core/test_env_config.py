"""Environment-variable validation at load time.

Malformed ``REPRO_BACKEND`` / ``REPRO_CONTEXT_CACHE`` /
``REPRO_SPARSE_EPSILON`` / ``REPRO_SHARD_WORKERS`` /
``REPRO_SHARD_EXECUTOR`` values must fail
with messages naming the variable and the accepted values — these
parsers run at module import (:meth:`BackendConfig.from_env` builds the
process default), so a typo surfaces immediately instead of deep inside
``get_context``.
"""

import pytest

from repro.core.context import (
    DEFAULT_CONTEXT_CACHE_LIMIT,
    _env_cache_limit,
)
from repro.core.gains import BackendConfig


def _env_backend():
    return BackendConfig.from_env().backend


def _env_epsilon():
    return BackendConfig.from_env().sparse_epsilon


def _env_shard_workers():
    return BackendConfig.from_env().workers


def _env_shard_executor():
    return BackendConfig.from_env().shard_executor


class TestContextCacheEnv:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_CONTEXT_CACHE", raising=False)
        assert _env_cache_limit() == DEFAULT_CONTEXT_CACHE_LIMIT

    def test_blank_is_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTEXT_CACHE", "   ")
        assert _env_cache_limit() == DEFAULT_CONTEXT_CACHE_LIMIT

    def test_valid_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTEXT_CACHE", "7")
        assert _env_cache_limit() == 7

    def test_non_integer_names_variable_and_form(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTEXT_CACHE", "lots")
        with pytest.raises(ValueError, match="REPRO_CONTEXT_CACHE") as err:
            _env_cache_limit()
        assert "positive integer" in str(err.value)
        assert "'lots'" in str(err.value)

    def test_zero_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTEXT_CACHE", "0")
        with pytest.raises(ValueError, match=">= 1"):
            _env_cache_limit()


class TestBackendEnv:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert _env_backend() == "dense"

    def test_case_and_whitespace_normalized(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "  Sparse ")
        assert _env_backend() == "sparse"

    def test_array_backend_rejected(self, monkeypatch):
        """The retired array backend name is rejected, naming the
        backends that exist."""
        monkeypatch.setenv("REPRO_BACKEND", "array")
        with pytest.raises(ValueError, match="REPRO_BACKEND") as err:
            _env_backend()
        assert "('dense', 'sparse', 'sharded')" in str(err.value)

    def test_unknown_backend_lists_allowed_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "gpu")
        with pytest.raises(ValueError, match="REPRO_BACKEND") as err:
            _env_backend()
        assert "dense" in str(err.value) and "sparse" in str(err.value)
        assert "sharded" in str(err.value)


class TestSparseEpsilonEnv:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPARSE_EPSILON", raising=False)
        assert _env_epsilon() == 0.0

    def test_valid_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPARSE_EPSILON", "0.25")
        assert _env_epsilon() == 0.25

    def test_non_float_names_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPARSE_EPSILON", "tiny")
        with pytest.raises(ValueError, match="REPRO_SPARSE_EPSILON") as err:
            _env_epsilon()
        assert "[0, 1)" in str(err.value)

    def test_out_of_range_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPARSE_EPSILON", "1.0")
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            _env_epsilon()


class TestShardWorkersEnv:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD_WORKERS", raising=False)
        assert _env_shard_workers() == 2

    def test_valid_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_WORKERS", " 8 ")
        assert _env_shard_workers() == 8

    def test_non_integer_names_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_SHARD_WORKERS") as err:
            _env_shard_workers()
        assert "integer" in str(err.value)
        assert "'many'" in str(err.value)

    def test_out_of_range_rejected(self, monkeypatch):
        for raw in ("0", "257"):
            monkeypatch.setenv("REPRO_SHARD_WORKERS", raw)
            with pytest.raises(ValueError, match=r"\[1, 256\]"):
                _env_shard_workers()


class TestShardExecutorEnv:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD_EXECUTOR", raising=False)
        assert _env_shard_executor() == "process"

    def test_blank_is_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_EXECUTOR", "   ")
        assert _env_shard_executor() == "process"

    def test_case_and_whitespace_normalized(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_EXECUTOR", "  Serial ")
        assert _env_shard_executor() == "serial"

    def test_unknown_executor_names_variable_and_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_EXECUTOR", "threads")
        with pytest.raises(ValueError, match="REPRO_SHARD_EXECUTOR") as err:
            _env_shard_executor()
        message = str(err.value)
        assert "serial" in message and "process" in message
        assert "'threads'" in message


class TestFromEnvCombines:
    def test_all_variables_feed_one_config(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "sharded")
        monkeypatch.setenv("REPRO_SPARSE_EPSILON", "0.05")
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "3")
        monkeypatch.setenv("REPRO_SHARD_EXECUTOR", "serial")
        assert BackendConfig.from_env() == BackendConfig(
            "sharded",
            sparse_epsilon=0.05,
            workers=3,
            shard_executor="serial",
        )
