"""Experiment configuration: strict JSON parsing and preset expansion.

Configs are UTF-8 JSON with exactly the documented fields; unknown fields
are rejected by name so a typo cannot silently change an experiment, and a
field of the wrong type or range raises :class:`ConfigError` naming it.
Integer fields must be JSON integers: a float, a bool or a numeric string is
rejected, never rounded.  The ``sharing`` entry is either an explicit list
with one mode per parametrised layer (``independent``, ``tied`` or
``soft_<tag>``) or a named preset:

* ``stl``: every layer independent (one private network per task).
* ``udmtl-N``: the first N parametrised layers tied across tasks, the rest
  independent (user-defined hard sharing); needs 1 <= N < layer count.
* ``dmtrl-<tag>``, one per factor scheme of ``factorization.SCHEMES``
  (``dmtrl-laf``, ``dmtrl-tucker``, ``dmtrl-tt``): every parametrised layer
  softly shared with that structure (the head stays independent when tasks
  have different output widths).

Layer objects are read by one strict codec, :func:`layer_from_json`, which
checkpoint manifests share with configs; :func:`layer_to_json` writes them.
A layer object's ``kind`` is a ``network.KINDS`` tag and its other fields
are that kind's integer fields (an activation's ``fn`` is the tag itself).
Manifests read their network spec through :func:`spec_from_json`, with the
same checks as a config.  A config's architecture must also end in a
vector, the per-sample output a head trains on, and no two cells of its
grids may share a file stem (:func:`cell_stem`).

A ``data`` object's fields and defaults are its source's entry of
``data.SOURCES``.  Whether the data fits the network is known only once
``dmtrl.cli`` builds it, so it is checked there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .data import SOURCES
from .network import KINDS, LayerSpec, NetworkSpec, SharingMode
from .training import PlainRandom, RandomDecompose, StlInit, TrainConfig

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "parse_data", "load_config",
           "layer_from_json", "layer_to_json", "spec_from_json", "spec_to_json"]

_SOFT_OF = {f"dmtrl-{mode.scheme.tag}": mode for mode in SharingMode if mode.soft}


class ConfigError(ValueError):
    pass


def _require_keys(obj: dict, where: str, required, optional=()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown field '{sorted(unknown)[0]}' in {where}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"missing field '{sorted(missing)[0]}' in {where}")


def _tag(obj, key: str, table: dict, where: str) -> str:
    """The ``key`` entry of a JSON object; it must name an entry of ``table``."""
    if not isinstance(obj, dict) or key not in obj:
        raise ConfigError(f"missing field '{key}' in {where}")
    tag = obj[key]
    if not isinstance(tag, str) or tag not in table:
        raise ConfigError(f"unknown {key} {tag!r} in {where}")
    return tag


def _json_int(value, what: str, least: int) -> int:
    if type(value) is not int or value < least:
        raise ConfigError(f"{what} must be an integer >= {least}, got {value!r}")
    return value


def _json_list(value, what: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{what} must be a non-empty list, got {value!r}")
    return value


def _json_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


def _sharing_mode(name, where: str) -> SharingMode:
    try:
        return SharingMode(name)
    except ValueError:
        raise ConfigError(f"{where}: unknown mode {name!r}") from None


def _int_fields(cls) -> list:
    return [f.name for f in fields(cls) if f.type in (int, "int")]


def layer_to_json(ls: LayerSpec) -> dict:
    """A layer as the object :func:`layer_from_json` reads with ``with_mode``."""
    kind = ls.kind
    return {"kind": kind.tag, **{k: getattr(kind, k) for k in _int_fields(type(kind))},
            "mode": ls.mode.value if ls.mode else None}


def layer_from_json(entry, where: str, with_mode: bool = False) -> LayerSpec:
    """One layer object, read strictly: exactly ``kind`` and that kind's
    integer fields, plus ``mode`` when ``with_mode``.  A mode may be non-null
    on parametrised (fc and conv) layers only."""
    tag = _tag(entry, "kind", KINDS, where)
    cls = KINDS[tag]
    ints = _int_fields(cls)
    _require_keys(entry, where, ("kind", *ints) + (("mode",) if with_mode else ()))
    kind = cls(**{f.name: tag for f in fields(cls) if f.name not in ints},
               **{k: _json_int(entry[k], f"field '{k}' in {where}", 1) for k in ints})
    if entry.get("mode") is None:
        return LayerSpec(kind)
    if not kind.parametrised:
        raise ConfigError(f"{where}: a sharing mode is allowed only on fc and conv layers")
    return LayerSpec(kind, _sharing_mode(entry["mode"], where))


def _shape_fields(obj: dict) -> tuple:
    """``input_shape``, ``tasks`` and ``head_dims`` (None when null or
    absent), every entry a JSON integer >= 1."""
    def ints(key):
        return [_json_int(d, f"field '{key}'", 1) for d in _json_list(obj[key], f"field '{key}'")]

    head_dims = None if obj.get("head_dims") is None else ints("head_dims")
    return tuple(ints("input_shape")), _json_int(obj["tasks"], "field 'tasks'", 1), head_dims


def spec_to_json(spec: NetworkSpec) -> dict:
    """A network spec as the object :func:`spec_from_json` reads."""
    return {
        "input_shape": list(spec.input_shape),
        "tasks": spec.tasks,
        "head_dims": list(spec.head_dims) if spec.head_dims is not None else None,
        "layers": [layer_to_json(ls) for ls in spec.layers],
    }


def spec_from_json(obj) -> NetworkSpec:
    """A network spec, read strictly: exactly the four keys
    :func:`spec_to_json` writes, the shape fields as in a config and every
    layer through :func:`layer_from_json` with its mode."""
    _require_keys(obj, "spec", ("input_shape", "tasks", "head_dims", "layers"))
    input_shape, tasks, head_dims = _shape_fields(obj)
    layers = [layer_from_json(e, f"layers[{i}]", with_mode=True)
              for i, e in enumerate(obj["layers"])]
    return NetworkSpec(input_shape, layers, tasks, head_dims)


def expand_sharing(sharing, n_param_layers: int, heterogeneous: bool):
    """Map a preset name or an explicit mode list to per-layer modes."""
    if isinstance(sharing, str):
        if sharing == "stl":
            return [SharingMode.INDEPENDENT] * n_param_layers
        if sharing.startswith("udmtl-"):
            try:
                n = int(sharing.split("-", 1)[1])
            except ValueError:
                raise ConfigError(f"bad preset in field 'sharing': '{sharing}'")
            if not 1 <= n < n_param_layers:
                raise ConfigError(
                    f"field 'sharing': udmtl-{n} needs 1 <= N < {n_param_layers} "
                    f"parametrised layers"
                )
            return [SharingMode.TIED] * n + [SharingMode.INDEPENDENT] * (n_param_layers - n)
        if sharing in _SOFT_OF:
            modes = [_SOFT_OF[sharing]] * n_param_layers
            if heterogeneous:
                modes[-1] = SharingMode.INDEPENDENT
            return modes
        raise ConfigError(f"field 'sharing': unknown preset '{sharing}'")
    if isinstance(sharing, list):
        if len(sharing) != n_param_layers:
            raise ConfigError(
                f"field 'sharing': {len(sharing)} modes for {n_param_layers} "
                f"parametrised layers"
            )
        return [_sharing_mode(m, "field 'sharing'") for m in sharing]
    raise ConfigError("field 'sharing' must be a preset name or a list of modes")


_INIT_FIELDS = {"stl": ("pretrain_epochs", "epsilon"),
                "random_decompose": ("epsilon",), "plain_random": ()}


def _parse_init(obj: dict):
    policy = _tag(obj, "policy", _INIT_FIELDS, "init")
    _require_keys(obj, "init", ("policy",), _INIT_FIELDS[policy])
    if policy == "plain_random":
        return PlainRandom()
    epsilon = _json_number(obj.get("epsilon", 0.10), "field 'epsilon' in init")
    epochs = _json_int(obj.get("pretrain_epochs", 10), "field 'pretrain_epochs' in init", 0)
    try:
        return StlInit(epochs, epsilon) if policy == "stl" else RandomDecompose(epsilon)
    except ValueError as e:  # epsilon outside (0, 1)
        raise ConfigError(f"bad init settings: {e}") from e


# least value of each numeric field of ``train`` and ``data``: an int marks a
# JSON integer, a float any number; the other fields are strings
_LEAST = {"batch_size": 1, "epochs": 0, "seed": 0, "n_train": 1, "n_test": 1,
          "jitter": 0, "class_seed": 0, "n_train_per_task": 8, "n_test_per_task": 8,
          "noise": 0.0, "lr": 0.0, "beta1": 0.0, "beta2": 0.0, "adam_eps": 0.0}


def _check_values(obj: dict, where: str) -> dict:
    for k, v in obj.items():
        what, least = f"field '{k}' in {where}", _LEAST.get(k)
        if type(least) is int:
            _json_int(v, what, least)
        elif least is None and not isinstance(v, str):
            raise ConfigError(f"{what} must be a string, got {v!r}")
        elif least is not None and _json_number(v, what) < least:
            raise ConfigError(f"{what} must be >= {least}, got {v!r}")
    return obj


def _parse_train(obj: dict) -> TrainConfig:
    _require_keys(obj, "train", (), [f.name for f in fields(TrainConfig)])
    _check_values(obj, "train")
    try:
        return TrainConfig(**obj)
    except ValueError as e:
        raise ConfigError(f"bad train settings: {e}")


def parse_data(obj) -> dict:
    """A ``data`` object, read strictly against its ``data.SOURCES`` entry
    (also by ``dmtrl eval --data``)."""
    source = SOURCES[_tag(obj, "source", SOURCES, "data")]
    _require_keys(obj, "data", ("source", *source.required), source.defaults)
    return dict(_check_values(obj, "data"))


def cell_label(preset) -> str:
    """A grid cell's method label: its preset's name, ``custom`` for a mode list."""
    return preset if isinstance(preset, str) else "custom"


def cell_stem(label: str, fraction: float, repeat: int) -> str:
    """The file name stem of a grid cell's checkpoint, manifest and log."""
    return f"{label}_f{fraction:g}_r{repeat}"


@dataclass
class ExperimentConfig:
    tasks: int
    input_shape: tuple
    architecture: list          # LayerKind records, in order
    sharing: object             # preset string or explicit mode list
    init: object                # StlInit | RandomDecompose | PlainRandom
    train: TrainConfig
    data: dict
    head_dims: list | None = None
    fractions: list = field(default_factory=lambda: [1.0])
    repeats: int = 1
    presets: list | None = None   # sweep only

    def n_param_layers(self) -> int:
        return sum(1 for k in self.architecture if k.parametrised)

    def network_spec(self, sharing=None) -> NetworkSpec:
        modes = iter(expand_sharing(
            self.sharing if sharing is None else sharing,
            self.n_param_layers(),
            self.head_dims is not None and len(set(self.head_dims)) > 1,
        ))
        layers = [LayerSpec(k, next(modes) if k.parametrised else None) for k in self.architecture]
        return NetworkSpec(self.input_shape, layers, self.tasks, self.head_dims)


def parse_config(obj: dict) -> ExperimentConfig:
    _require_keys(
        obj, "config",
        ("tasks", "input_shape", "architecture", "sharing", "init", "train", "data"),
        ("head_dims", "fractions", "repeats", "presets", "name"),
    )
    arch = _json_list(obj["architecture"], "field 'architecture'")
    input_shape, tasks, head_dims = _shape_fields(obj)
    presets = obj.get("presets")
    if presets is not None:
        _json_list(presets, "field 'presets'")
    if not isinstance(obj.get("name", ""), str):  # a label only; nothing reads it
        raise ConfigError(f"field 'name' must be a string, got {obj['name']!r}")
    cfg = ExperimentConfig(
        tasks=tasks,
        input_shape=input_shape,
        architecture=[layer_from_json(e, f"architecture[{i}]").kind for i, e in enumerate(arch)],
        sharing=obj["sharing"],
        init=_parse_init(obj["init"]),
        train=_parse_train(obj["train"]),
        data=parse_data(obj["data"]),
        head_dims=head_dims,
        fractions=[_json_number(f, "field 'fractions'")
                   for f in _json_list(obj.get("fractions", [1.0]), "field 'fractions'")],
        repeats=_json_int(obj.get("repeats", 1), "field 'repeats'", 1),
        presets=presets,
    )
    for f in cfg.fractions:
        if not 0.0 < f <= 1.0:
            raise ConfigError(f"field 'fractions': {f} outside (0, 1]")
    try:  # sharing expansion, the shape chain and the init, for every preset a sweep runs
        for sharing in [cfg.sharing, *(cfg.presets or ())]:
            if cfg.network_spec(sharing).has_soft() and isinstance(cfg.init, PlainRandom):
                raise ConfigError(f"field 'init': {sharing!r} has softly shared layers, "
                                  "which need an stl or random_decompose init")
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"invalid network: {e}") from e
    for grid in (presets or (), [cfg.sharing]):  # the grids of dmtrl sweep and dmtrl train
        stems = [cell_stem(cell_label(p), f, r)
                 for p in grid for f in cfg.fractions for r in range(cfg.repeats)]
        shared = [stem for stem in stems if stems.count(stem) > 1]
        if shared:
            raise ConfigError(f"two grid cells would write the same files '{shared[0]}.*': "
                              "give the presets and fractions distinct names")
    shape = input_shape
    for kind in cfg.architecture:
        shape = kind.out_shape(shape)
    if len(shape) != 1:  # a task's predictions are one vector per sample
        raise ConfigError(f"field 'architecture': the network's output has shape {shape}, "
                          "the heads need a vector")
    return cfg


def read_json(path):
    """The JSON value in the file ``path``: a config, or a data spec for
    ``dmtrl eval --data``.  A file that is not UTF-8 JSON raises ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigError(f"{path} is not valid UTF-8 JSON: {e}") from e


def load_config(path) -> ExperimentConfig:
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    return parse_config(obj)
