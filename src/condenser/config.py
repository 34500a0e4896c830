"""Pipeline configuration: token budget, classifier thresholds, stoplist and
generation settings.

The fields of PipelineConfig are the only list of knobs. A key=value config
file (load_config) and the CLI flags both take their keys from those fields
and convert each value by its field's declared type (parse_settings); the CLI
applies file values first, then flag overrides.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from condenser.sequences import split_lines

if TYPE_CHECKING:
    from condenser.identifiers import IdentifierFilter

DEFAULT_BUDGET = 1024
DEFAULT_TARGET_TOKENS = 128


class ConfigError(Exception):
    pass


def _parse_stoplist(text: str) -> frozenset[str]:
    """One lowercase word per line; '#' starts a comment."""
    words: set[str] = set()
    for raw in split_lines(text):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if any(ch.isspace() for ch in line):
            raise ConfigError(f"stoplist entries must be single words, got {line!r}")
        words.add(line.lower())
    return frozenset(words)


def load_stoplist(path: str | Path) -> frozenset[str]:
    return _parse_stoplist(Path(path).read_text(encoding="utf-8"))


def default_stoplist() -> frozenset[str]:
    return _parse_stoplist(resources.files("condenser").joinpath("data/stoplist.txt").read_text(encoding="utf-8"))


@dataclass(frozen=True)
class PipelineConfig:
    budget: int = field(default=DEFAULT_BUDGET, metadata={"help": "template token budget (default 1024)"})
    target_tokens: int = DEFAULT_TARGET_TOKENS
    # change-type classifier thresholds
    small_change_max_statements: int = 2
    large_change_min_methods: int = 8
    large_change_min_classes: int = 2
    accessor_ratio: float = 0.5
    external_call_ratio: float = 0.5
    # statement modify pairing
    modify_similarity: float = 0.6
    # identifier filtering
    min_identifier_length: int = 2
    stoplist: frozenset[str] = field(
        default_factory=default_stoplist, metadata={"help": "identifier stoplist file, one word per line"}
    )
    # generation endpoint
    jobs: int = field(default=1, metadata={"help": "in-flight request cap for generate"})
    max_new_tokens: int = 128
    temperature: float = 0.0
    attempts: int = 3
    backoff_base: float = 0.5
    timeout: float = 30.0
    prompt_field: str = "prompt"
    completion_field: str = "completion"

    @cached_property
    def identifier_filter(self) -> IdentifierFilter:
        """The IdentifierFilter of stoplist and min_identifier_length, built
        (and its stoplist checked) once per configuration."""
        from condenser.identifiers import IdentifierFilter  # identifiers imports this module

        return IdentifierFilter(stoplist=self.stoplist, min_length=self.min_identifier_length)

    def validate(self) -> None:
        if self.budget < 64:
            raise ConfigError(f"budget must be >= 64, got {self.budget}")
        if self.target_tokens < 1:
            raise ConfigError(f"target_tokens must be >= 1, got {self.target_tokens}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if self.attempts < 1:
            raise ConfigError("attempts must be >= 1")
        if not (0.0 <= self.modify_similarity <= 1.0):
            raise ConfigError("modify_similarity must be in [0, 1]")
        if not self.timeout > 0:
            raise ConfigError(f"timeout must be > 0, got {self.timeout}")
        if not self.backoff_base >= 0:
            raise ConfigError(f"backoff_base must be >= 0, got {self.backoff_base}")


def parse_settings(settings: Iterable[tuple[str, str, str]]) -> dict[str, object]:
    """Convert (where, key, text) triples into PipelineConfig field values,
    each by its field's declared type; `where` locates an error."""
    by_type = {"int": int, "float": float, "str": str, "frozenset[str]": load_stoplist}
    parsers = {f.name: by_type[f.type] for f in fields(PipelineConfig)}
    values: dict[str, object] = {}
    for where, key, text in settings:
        if key not in parsers:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        try:
            values[key] = parsers[key](text)
        except (ValueError, OSError, ConfigError) as exc:
            raise ConfigError(f"{where}: invalid {key} value {text!r}: {exc}") from None
    return values


def _file_settings(path: str | Path) -> Iterable[tuple[str, str, str]]:
    for lineno, raw in enumerate(split_lines(Path(path).read_text(encoding="utf-8")), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        yield f"{path}:{lineno}", key, value


def load_config(path: str | Path) -> PipelineConfig:
    """Parse a key=value config file over the default configuration."""
    cfg = PipelineConfig(**parse_settings(_file_settings(path)))
    cfg.validate()
    return cfg
