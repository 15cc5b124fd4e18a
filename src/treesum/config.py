"""Run configuration: one serializable record per CLI invocation.

A config can come from command-line flags, from a flat ``key = value`` text
file, or both (flags override the file). Every run echoes its effective
config into the output directory. ``tune``'s grid and objective flags are
fields too, unset (and not echoed) for the other commands; the flags that
only ``summarize`` or ``evaluate`` takes (``--format``, ``--dump-trees``,
``--summaries``) are not part of it.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable

from .corpus import Corpus, is_unicode_text, read_text
from .embedding import MAX_BUILTIN_DIM, provider_builtin_tfidf, provider_file, provider_remote
from .rouge import METRIC_IDS
from .scoring import Hyperparams
from .selection import Budget
from .variants import METHODS


class ConfigError(Exception):
    """Raised for unusable run configurations."""


@dataclass(frozen=True)
class RunConfig:
    input: str = ""
    layout: str = "topic-dirs"
    method: str = "ours_final"
    budget_unit: str = "words"
    budget_limit: int = 100
    embedder: str = "builtin:128"
    seed: int = 0
    k_first: int = 3
    k_rest: int = 2
    delta: float = 0.9
    alpha: float = 0.8
    beta: float = 0.1
    gamma: float = 0.1
    max_nodes: int | None = None
    metrics: tuple[str, ...] = METRIC_IDS
    report: str = "recall"
    out: str = "out"
    workers: int = 1
    # tune only: the grid restrictions and the objective metric
    deltas: str | None = None
    ks: str | None = None
    weights: str | None = None
    objective: str | None = None

    def hyperparams(self) -> Hyperparams:
        try:
            return Hyperparams(
                delta=self.delta,
                alpha=self.alpha,
                beta=self.beta,
                gamma=self.gamma,
                k_first=self.k_first,
                k_rest=self.k_rest,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def budget(self) -> Budget:
        try:
            return Budget(unit=self.budget_unit, limit=self.budget_limit)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def make_provider(self, corpus: Corpus):
        """Build the embedding provider described by the ``embedder`` spec."""
        kind, arg = _parse_embedder(self.embedder)
        if kind == "file":
            return provider_file(arg, corpus)
        if kind == "builtin":
            return provider_builtin_tfidf(corpus, arg, self.seed)
        return provider_remote(arg)


def _parse_embedder(spec: str) -> tuple[str, str | int]:
    """``(kind, arg)`` of an embedder spec: ``file:<path>``, ``remote:<url>``
    or ``builtin:<dim>`` with ``dim`` an int from 2 to ``MAX_BUILTIN_DIM``."""
    kind, _, arg = spec.partition(":")
    if not arg:
        raise ConfigError(f"malformed embedder spec {spec!r}")
    if kind in ("file", "remote"):
        return kind, arg
    if kind != "builtin":
        raise ConfigError(f"unknown embedder kind {kind!r}")
    try:
        dim = int(arg)
    except ValueError as exc:
        raise ConfigError(f"builtin embedder dim must be an integer: {arg!r}") from exc
    if not 2 <= dim <= MAX_BUILTIN_DIM:
        raise ConfigError(f"embedder {spec!r}: builtin dim must be from 2 to {MAX_BUILTIN_DIM}")
    return kind, dim


def _parser(hint) -> Callable[[str], object]:
    """How a field annotated ``hint`` reads its text value: ``int | None``
    as an int, ``tuple[str, ...]`` as a comma list."""
    if typing.get_origin(hint) is tuple:
        return lambda raw: tuple(v.strip() for v in raw.split(",") if v.strip())
    return typing.get_args(hint)[0] if typing.get_origin(hint) else hint


# File keys are the field names with "-" for "_", the CLI flag names. The
# budget's unit and limit are one key: budget-words or budget-bytes.
BUDGET_KEYS = ("budget-words", "budget-bytes")
_PARSERS = {
    name.replace("_", "-"): (name, _parser(hint))
    for name, hint in typing.get_type_hints(RunConfig).items()
    if not name.startswith("budget_")
}
CONFIG_KEYS = BUDGET_KEYS + tuple(_PARSERS)


def config_to_text(config: RunConfig) -> str:
    """One ``key = value`` line per field; ``max-nodes`` only when set."""
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name == "budget_unit":
            lines.append(f"budget-{value} = {config.budget_limit}")
        elif f.name != "budget_limit" and value is not None:
            text = ",".join(value) if isinstance(value, tuple) else value
            lines.append(f"{f.name.replace('_', '-')} = {text}")
    return "\n".join(lines) + "\n"


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines; a line whose first non-blank character is
    ``#`` is a comment, and a ``#`` anywhere else belongs to the value."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def config_from_mapping(values: dict[str, str], base: RunConfig | None = None) -> RunConfig:
    config = base or RunConfig()
    updates: dict = {}
    if all(key in values for key in BUDGET_KEYS):
        raise ConfigError("budget-words and budget-bytes cannot both be set")
    for key, raw in values.items():
        if not is_unicode_text(raw):
            raise ConfigError(f"the value of {key!r} is not valid UTF-8")
        try:
            if key in BUDGET_KEYS:
                limit = int(raw)
                float(limit)  # the default node cap divides the limit as a float
                updates["budget_unit"] = key.removeprefix("budget-")
                updates["budget_limit"] = limit
            elif key in _PARSERS:
                name, parse = _PARSERS[key]
                updates[name] = parse(raw)
            else:
                raise ConfigError(f"unknown config key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
        except OverflowError as exc:
            raise ConfigError(f"bad value for {key!r}: past the float range") from exc
    config = replace(config, **updates)
    if config.method.replace("-", "_") not in METHODS:
        raise ConfigError(f"unknown method {config.method!r}")
    if not config.metrics:
        raise ConfigError("metrics must name at least one metric")
    unknown = set(config.metrics) - set(METRIC_IDS)
    if unknown:
        raise ConfigError(f"unknown metrics: {sorted(unknown)}")
    repeated = sorted({m for m in config.metrics if config.metrics.count(m) > 1})
    if repeated:
        raise ConfigError(f"metrics name {', '.join(repeated)} more than once")
    if config.report not in ("recall", "f1"):
        raise ConfigError(f"report must be 'recall' or 'f1', got {config.report!r}")
    if not config.out:
        raise ConfigError("out must name a directory")
    if config.workers < 1:
        raise ConfigError("workers must be >= 1")
    if config.max_nodes is not None and config.max_nodes < 1:
        raise ConfigError("max-nodes must be >= 1")
    if config.objective is not None and config.objective not in METRIC_IDS:
        raise ConfigError(f"objective must be one of {', '.join(METRIC_IDS)}, got {config.objective!r}")
    _parse_embedder(config.embedder)
    return config


def load_config_file(path: str | Path) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file {p} does not exist")
    return parse_config_text(read_text(p, ConfigError), source=str(p))
