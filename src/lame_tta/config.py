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

SCENARIO_KEYS = ("source", "sampling", "zipf_s", "batch_size", "seed", "mapping")
FAMILY_KEYS = ("source", "scenarios", "zipf_s", "batch_size", "seeds", "mapping")

_SYNTH_FIELDS = {
    "k": ("K", int),
    "d": ("d", int),
    "n_per_class": ("n_per_class", int),
    "spread": ("cluster_spread", float),
    "rotation": ("rotation_angle", float),
    "noise": ("noise_sigma", float),
}


class ConfigError(ValueError):
    pass


def parse_kv(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def apply_overrides(kv: dict[str, str], overrides: list[str]) -> dict[str, str]:
    merged = dict(kv)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, value = item.split("=", 1)
        merged[key.strip()] = value.strip()
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


def parse_source(value: str) -> SyntheticConfig | str:
    if not value:
        raise ConfigError("source must not be empty")
    if value == "synthetic":
        return SyntheticConfig()
    if value.startswith("synthetic:"):
        kwargs = {}
        for part in value[len("synthetic:"):].split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ConfigError(f"bad synthetic parameter {part!r}")
            key, val = (s.strip() for s in part.split("=", 1))
            if key.lower() not in _SYNTH_FIELDS:
                raise ConfigError(f"unknown synthetic parameter {key!r}")
            name, cast = _SYNTH_FIELDS[key.lower()]
            try:
                kwargs[name] = cast(val)
            except ValueError:
                raise ConfigError(f"bad value for synthetic parameter {key!r}: {val!r}") from None
        return SyntheticConfig(**kwargs)
    return value


def _parse_zipf(value: str) -> float | None:
    if value.lower() in ("", "none", "off"):
        return None
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"bad zipf_s value {value!r}") from None


def _load_mapping(value: str) -> ClassMapping | None:
    if value.lower() in ("", "none"):
        return None
    return load_mapping(value)


def _source_and_mapping(kv: dict[str, str], keys: tuple[str, ...], what: str):
    """Reject unknown keys; parse the required source and the optional mapping."""
    unknown = set(kv) - set(keys)
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    if "source" not in kv:
        raise ConfigError(f"{what} config needs a 'source' key")
    return parse_source(kv["source"]), _load_mapping(kv.get("mapping", "none"))


def scenario_from_kv(kv: dict[str, str]) -> ScenarioSpec:
    source, mapping = _source_and_mapping(kv, SCENARIO_KEYS, "scenario")
    return ScenarioSpec(
        source=source,
        sampling=kv.get("sampling", "iid"),
        prior_shift=_parse_zipf(kv.get("zipf_s", "none")),
        batch_size=int(kv.get("batch_size", "64")),
        seed=int(kv.get("seed", "0")),
        mapping=mapping,
    )


def family_from_kv(kv: dict[str, str]) -> tuple[list[Scenario], list[int]]:
    """The scenarios and seeds of a family config: one scenario per letter
    of ``scenarios`` (A = i.i.d., B = non-i.i.d., C = i.i.d. + prior shift,
    D = non-i.i.d. + prior shift), all sharing one source."""
    source, mapping = _source_and_mapping(kv, FAMILY_KEYS, "family")
    letters = parse_list(kv.get("scenarios", "A,B,C,D"), str.upper, "scenarios")
    seeds = parse_list(kv.get("seeds", "0"), int, "seeds")
    zipf = _parse_zipf(kv.get("zipf_s", "1.0"))
    if zipf is None and any(letter in ("C", "D") for letter in letters):
        raise ConfigError("prior-shift scenarios need a zipf_s value")
    scenarios = synthetic_family(
        source,
        batch_size=int(kv.get("batch_size", "32")),
        zipf_s=zipf,
        letters=tuple(letters),
        mapping=mapping,
    )
    return scenarios, seeds


def read_config(path, overrides: list[str] | None = None) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        kv = parse_kv(fh.read())
    return apply_overrides(kv, overrides or [])
