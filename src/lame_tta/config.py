"""Key-value config files for scenarios and scenario families.

Format: UTF-8 text, one ``key = value`` per line, ``#`` comments. Unknown
keys are rejected. The ``source`` value is either a path to an embedding
container or an inline synthetic spec such as::

    synthetic:K=8,d=16,n_per_class=600,spread=0.35,rotation=0.5,noise=0.25
"""

from __future__ import annotations

from .harness import Scenario, synthetic_family
from .mapping import ClassMapping, load_mapping
from .streams import ScenarioSpec, SyntheticConfig


class ConfigError(ValueError):
    pass


def _parse_items(items, fold=str) -> dict[str, str]:
    """{key: value} of ``(where, "key=value")`` pairs, stripped, each key
    through ``fold``: the one rule for config lines, ``--set`` items and
    inline synthetic parameters. A missing ``=``, an empty key or a
    repeated key is an error naming ``where``."""
    out: dict[str, str] = {}
    for where, item in items:
        key, eq, value = item.partition("=")
        key = fold(key.strip())
        if not eq or not key:
            raise ConfigError(f"{where}: expected 'key = value'")
        if key in out:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def parse_kv(text: str) -> dict[str, str]:
    lines = ((f"line {n}", raw.strip()) for n, raw in enumerate(text.splitlines(), start=1))
    return _parse_items((where, line) for where, line in lines if line and not line.startswith("#"))


def apply_overrides(kv: dict[str, str], overrides: list[str]) -> dict[str, str]:
    """``kv`` with each ``--set`` item applied in turn, so a later one wins."""
    merged = dict(kv)
    for item in overrides:
        merged.update(_parse_items([(f"override {item!r}", item)]))
    return merged


def parse_list(text: str, cast, name: str) -> list:
    """The comma list ``text``, blank items dropped and each item cast; a
    bad item, an empty list or a repeated value is an error naming the
    list (a repeated value would run each of its cells twice)."""
    try:
        values = [cast(item.strip()) for item in text.split(",") if item.strip()]
    except ValueError:
        raise ConfigError(f"bad {name} list {text!r}") from None
    if not values:
        raise ConfigError(f"{name} list is empty")
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigError(f"repeated {name} value(s) {repeated}: each would run twice")
    return values


def _fields(items: dict[str, str], table: dict, what: str) -> dict:
    """The keyword arguments that ``table`` ({key: (field, parser)}) makes
    of ``items``, parsed in table order. An absent key is left out, so it
    takes the default of the callee; an unknown key, a missing ``source``
    or a value that its parser rejects is an error naming the key."""
    unknown = sorted(set(items) - set(table))
    if unknown:
        raise ConfigError(f"unknown {what}(s): {unknown}")
    if "source" in table and "source" not in items:
        raise ConfigError("config needs a 'source' key")
    out = {}
    for key in (key for key in table if key in items):
        field, parse = table[key]
        try:
            out[field] = parse(items[key])
        except ValueError as exc:
            raise ConfigError(f"bad value {items[key]!r} for {what} {key!r}: {exc}") from None
    return out


_SYNTHETIC_FIELDS = {
    "k": ("K", int),
    "d": ("d", int),
    "n_per_class": ("n_per_class", int),
    "spread": ("cluster_spread", float),
    "rotation": ("rotation_angle", float),
    "noise": ("noise_sigma", float),
}


def parse_source(value: str) -> SyntheticConfig | str:
    """A container path, or ``synthetic`` with optional ``:key=value,...``
    parameters (keys case-insensitive) for :class:`SyntheticConfig`."""
    if not value:
        raise ConfigError("source must not be empty")
    if value != "synthetic" and not value.startswith("synthetic:"):
        return value
    parts = (part.strip() for part in value[len("synthetic:"):].split(","))
    params = _parse_items(((f"synthetic parameter {p!r}", p) for p in parts if p), str.lower)
    return SyntheticConfig(**_fields(params, _SYNTHETIC_FIELDS, "synthetic parameter"))


def _parse_zipf(value: str) -> float | None:
    return None if value.lower() in ("", "none", "off") else float(value)


def _load_mapping(value: str) -> ClassMapping | None:
    return None if value.lower() in ("", "none") else load_mapping(value)


# the mapping comes second: a missing mapping file outranks a bad value
_SCENARIO_FIELDS = {
    "source": ("source", parse_source),
    "mapping": ("mapping", _load_mapping),
    "sampling": ("sampling", str),
    "zipf_s": ("prior_shift", _parse_zipf),
    "batch_size": ("batch_size", int),
    "seed": ("seed", int),
}
_FAMILY_FIELDS = {
    "source": ("source", parse_source),
    "mapping": ("mapping", _load_mapping),
    "scenarios": ("letters", lambda text: tuple(parse_list(text, str.upper, "scenarios"))),
    "seeds": ("seeds", lambda text: parse_list(text, int, "seeds")),
    "zipf_s": ("zipf_s", _parse_zipf),
    "batch_size": ("batch_size", int),
}
FAMILY_KEYS = tuple(_FAMILY_FIELDS)


def scenario_from_kv(kv: dict[str, str]) -> ScenarioSpec:
    return ScenarioSpec(**_fields(kv, _SCENARIO_FIELDS, "config key"))


def family_from_kv(kv: dict[str, str]) -> tuple[list[Scenario], list[int]]:
    """The scenarios and seeds of a family config: one scenario per letter
    of ``scenarios`` (see :func:`~lame_tta.harness.synthetic_family`), all
    sharing one source; without ``seeds``, the one default scenario seed."""
    fields = _fields(kv, _FAMILY_FIELDS, "config key")
    seeds = fields.pop("seeds", [ScenarioSpec.seed])
    try:
        return synthetic_family(**fields), seeds
    except ValueError as exc:  # a family the library rejects is a config fault
        raise ConfigError(str(exc)) from None


def read_config(path, overrides: list[str] | None = None) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        kv = parse_kv(fh.read())
    return apply_overrides(kv, overrides or [])
