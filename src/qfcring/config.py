"""Experiment configuration: strict schema, YAML I/O, overrides, hashing.

Every physical quantity carries its unit in the key name.  Unknown keys are
errors and so are missing ones (only the `calibration` section may be
absent, until `calibrate` writes it).  The resolved configuration is
echoed into every output's .meta.json sidecar, keyed by a canonical sha256
hash.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import re
from functools import lru_cache
from importlib import resources

import yaml

from .constants import MAX_GRID_CELLS
from .errors import ConfigError


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 exponent floats (1e3, 1E-4, -2e5).

    The YAML 1.1 resolver wants a dot and a signed exponent, so it reads
    these as strings, including the `repr` floats `emit_config` writes.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)

if yaml.__with_libyaml__:
    class _CLoader(yaml.CSafeLoader):
        """libyaml's parser with _Loader's resolvers."""

        yaml_implicit_resolvers = _Loader.yaml_implicit_resolvers
else:
    _CLoader = None

# Text for the pure-Python loader only: libyaml reads tags, block scalars,
# "?", tabs, CR and non-ASCII text unlike it (`!` as '' for None, `[1, 2? 3]`
# as a list); a fuzz of both parsers found no difference on other text.
_PURE_ONLY = re.compile(r"[^\n -~]|[!|>?]")

# Schema: section -> key -> type; every key of a present section is required.
# A key ending in `by_width` is a width-keyed map (keys spelled by `width_key`)
# and its value here is the type of each entry: a type, or a key -> type table
# checked like a section.  `list` values are numeric arrays, and a list of
# types is an array of exactly that length.
_NUM = (int, float)
SCHEMA = {
    "device": {
        "ring_length_um": _NUM,
        "width_nm": _NUM,
        "dc_gap_nm": _NUM,
        "dc_length_um": _NUM,
        "mzi_arm_delta_um": _NUM,
        "mzi_heater_length_um": _NUM,
        "mzi_delta_T_K": _NUM,
        "ambient_temperature_K": _NUM,
        "ppln_fraction": _NUM,
        "poling_period_um_by_width": _NUM,
        "propagation_loss_dB_per_m": _NUM,
    },
    "dispersion": {
        "table_file": (str, type(None)),
        "fit_order": int,
        "dn_dT_per_K": _NUM,
    },
    "physics": {
        "signal_wavelength_nm": _NUM,
        "signal_input_rate_Hz": _NUM,
        "pump_detuning_MHz": _NUM,
        "fwm_companion_linewidth_over_2pi_GHz": _NUM,
        "fwm_companion_detuning_THz_by_width": _NUM,
    },
    "constraints": {
        "max_signal_detuning_MHz": _NUM,
        "max_mismatch_MHz": _NUM,
        "pump_base_wavelength_nm": _NUM,
        "idler_base_wavelength_nm": _NUM,
        "half_window_nm": _NUM,
        "t_ring_min_K": _NUM,
        "t_ring_max_K": _NUM,
        "t_step_mK": _NUM,
        "require_qpm": bool,
    },
    "experiment": {
        "power_min_mW": _NUM,
        "power_max_mW": _NUM,
        "power_points": int,
        "power_spacing": str,
        # non-null pins convert/noise to this single drive power
        "pump_power_mW": (int, float, type(None)),
        "spectrum_span_GHz": _NUM,
        "spectrum_points": int,
        "mzi_sweep_max_K": _NUM,
        "mzi_sweep_points": int,
        "dc_grid_min_nm": _NUM,
        "dc_grid_max_nm": _NUM,
        "dc_grid_points": int,
        "widths_nm": list,
    },
    "calibration_targets": {
        "eta_pump": _NUM,
        "eta_signal": _NUM,
        "eta_idler": _NUM,
        "g0_over_2pi_MHz": _NUM,
        "fwm_rate_Hz": _NUM,
        "fwm_rate_power_mW": _NUM,
        "fwm_anchor_detuning_over_2pi_THz": _NUM,
        "max_heater_length_um": _NUM,
    },
    # Produced by the `calibrate` experiment; the one section that may be
    # absent until then (validate_config).
    "calibration": {
        "g0_full_over_2pi_MHz": _NUM,
        "g_chi3_over_2pi_Hz": _NUM,
        # the coupling length's quadratic in (lambda - lambda_ref): three coefficients
        "by_width": {"heater_scale": _NUM, "lc_quad_um": [_NUM] * 3},
    },
}


def _load_yaml(text: str, where: str = ""):
    """Parse YAML; a mapping that lists one key twice is a ConfigError.

    PyYAML keeps the last of two equal keys, and `1500:` equals `1500.0:`,
    so a repeated width would otherwise drop a value silently.  `where` is
    the config path of the text's root (an override's key).  libyaml parses
    when PyYAML has it, unless the text is `_PURE_ONLY`; text it refuses is
    parsed again by the pure-Python loader, so error texts stay that loader's.
    """
    if _CLoader is not None and not _PURE_ONLY.search(text):
        try:
            return _load_with(_CLoader, text, where)
        except yaml.YAMLError:
            pass
    return _load_with(_Loader, text, where)


def _load_with(loader_cls, text: str, where: str):
    loader = loader_cls(text)
    try:
        node = loader.get_single_node()
        _check_unique_keys(loader, node, where)
        return None if node is None else loader.construct_document(node)
    finally:
        loader.dispose()


def _check_unique_keys(loader, node, where: str):
    """ConfigError naming the first mapping at or below node that lists a key twice."""
    # One visit per node, on a stack: any depth ends, and so does an alias to an enclosing node.
    stack, visited = [(node, where)], set()
    while stack:
        node, where = stack.pop()
        if id(node) in visited:
            continue
        visited.add(id(node))
        if isinstance(node, yaml.SequenceNode):
            stack.extend((v, f"{where}[{i}]") for i, v in reversed(list(enumerate(node.value))))
        if not isinstance(node, yaml.MappingNode):
            continue
        seen, children = set(), []
        for key_node, value_node in node.value:
            if not isinstance(key_node, yaml.ScalarNode) or key_node.tag.endswith(":merge"):
                continue
            key = loader.construct_object(key_node)
            if key in seen:
                owner = f"config key '{where}'" if where else "the config root"
                raise ConfigError(f"{owner} lists {key!r} more than once")
            seen.add(key)
            children.append((value_node, f"{where}.{key}" if where else str(key)))
        stack.extend(reversed(children))


def _check_finite(path: str, values):
    for v in values:
        try:  # isfinite converts to float, which an int beyond float range fails
            bad = isinstance(v, _NUM) and not math.isfinite(v)
        except OverflowError:
            raise ConfigError(f"config key '{path}' is beyond float range") from None
        if bad:
            raise ConfigError(f"config key '{path}' must be finite, got {v}")


def _check_value(path: str, value, expected):
    if isinstance(expected, list):
        _check_value(path, value, list)
        if len(value) != len(expected):
            raise ConfigError(f"config key '{path}' must list {len(expected)} numbers, "
                              f"got {len(value)}")
        return
    if expected is list:
        if not isinstance(value, list) or not all(isinstance(v, _NUM) for v in value):
            raise ConfigError(f"config key '{path}' must be a list of numbers")
        _check_finite(path, value)
        return
    if isinstance(expected, dict):  # an entry schema: checked like a section
        _check_mapping(path, value)
        _check_keys(path, value, expected)
        return
    if expected is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"config key '{path}' must be a boolean")
        return
    if isinstance(value, bool) and int in (expected if isinstance(expected, tuple) else (expected,)):
        raise ConfigError(f"config key '{path}' must be a number, got boolean")
    if not isinstance(value, expected):
        raise ConfigError(f"config key '{path}' has wrong type {type(value).__name__}")
    _check_finite(path, (value,))


def _check_mapping(path: str, value):
    if not isinstance(value, dict):
        raise ConfigError(f"config key '{path}' must be a mapping")


def _check_keys(where: str, body: dict, keys: dict):
    """Unknown, missing and mistyped keys of one mapping (a section or an entry)."""
    for key in body:
        if key not in keys:
            raise ConfigError(f"unknown config key '{where}.{key}'")
    for key, expected in keys.items():
        path = f"{where}.{key}"
        if key not in body:
            raise ConfigError(f"missing config key '{path}'")
        if not key.endswith("by_width"):
            _check_value(path, body[key], expected)
            continue
        _check_mapping(path, body[key])
        body[key] = dict(zip(_width_keys(body[key], path), body[key].values()))
        for w, value in body[key].items():
            _check_value(f"{path}[{w}]", value, expected)


def validate_config(cfg: dict) -> dict:
    """Validate against the strict schema; returns cfg, its width-map keys respelled in place."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping of sections")
    for section in cfg:
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section '{section}'")
    for section, keys in SCHEMA.items():
        if section not in cfg:
            if section != "calibration":
                raise ConfigError(f"missing config section '{section}'")
            continue
        if not isinstance(cfg[section], dict):
            raise ConfigError(f"config section '{section}' must be a mapping")
        _check_keys(section, cfg[section], keys)
    spacing = cfg["experiment"]["power_spacing"]
    if spacing not in ("log", "linear"):
        raise ConfigError(f"power_spacing must be 'log' or 'linear', got {spacing!r}")
    for key, value in cfg["experiment"].items():
        if key.endswith("_points") and not 1 <= value <= MAX_GRID_CELLS:
            bound = "at least 1" if value < 1 else f"at most {MAX_GRID_CELLS}"
            raise ConfigError(f"config key 'experiment.{key}' must be {bound}, got {value}")
        if key in ("power_min_mW", "power_max_mW") and spacing == "log" and value <= 0.0:
            raise ConfigError(f"{key} must be positive for log spacing")
        if key.endswith("_mW") and value is not None and value < 0.0:
            raise ConfigError(f"config key 'experiment.{key}' must be >= 0, got {value}")
    if not cfg["experiment"]["widths_nm"]:
        raise ConfigError("config key 'experiment.widths_nm' must list at least one width")
    _width_keys(cfg["experiment"]["widths_nm"], "experiment.widths_nm")
    return cfg


def width_key(w) -> str:
    """The one spelling of a width (nm) as a map key.

    `%g` when that reads back to the same float, else `repr`: 1400.125 stays
    "1400.125", and two keys are equal exactly when their widths are.
    """
    width = float(w)
    short = f"{width:g}"
    return short if float(short) == width else repr(width)


def _width_keys(widths, where: str) -> list:
    # `1500`, `1500.0` and `'1500'` all spell "1500": a width listed twice is an
    # error here instead of one entry silently replacing the other.
    keys = {}
    for w in widths:
        try:
            key = width_key(w)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"'{where}' keys must be widths in nm, got {w!r}") from None
        if key in keys:
            raise ConfigError(f"config key '{where}' lists width {key} nm more than once")
        keys[key] = w
    return list(keys)


def load_config(path=None) -> dict:
    """Load and validate a YAML config; None loads the packaged default.

    The packaged default is parsed once per process; every call returns a
    fresh copy, so callers may mutate it.
    """
    if path is None:
        return copy.deepcopy(_packaged_config())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return _parse_config(text, str(path))


def _parse_config(text: str, source: str) -> dict:
    try:
        cfg = _load_yaml(text)
    # ValueError: an int of > 4300 digits; RecursionError: the pure-Python
    # composer on deeply nested text
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise ConfigError(f"{source}: YAML parse error: {exc}") from None
    return validate_config(cfg)


@lru_cache(maxsize=1)
def _packaged_config() -> dict:
    return _parse_config(default_config_text(), "<packaged default>")


def default_config_text() -> str:
    ref = resources.files("qfcring.data").joinpath("default_config.yaml")
    return ref.read_text(encoding="utf-8")


def default_config() -> dict:
    return load_config(None)


# --------------------------------------------------------------------------
# Overrides
# --------------------------------------------------------------------------

def apply_overrides(cfg: dict, overrides) -> dict:
    """Apply `key=value` strings; equivalent to editing the file by hand.

    Keys are dotted paths (`physics.signal_wavelength_nm=727`) or bare keys,
    which name the one section that holds them.  Values are parsed as
    YAML scalars.  The result is re-validated.
    """
    out = json.loads(json.dumps(cfg))  # deep copy, plain types only
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override '{_echo(item)}' is not of the form key=value")
        key, _, raw = item.partition("=")
        key = key.strip()
        try:
            value = _load_yaml(raw, key)
        except (yaml.YAMLError, ValueError, RecursionError):
            raise ConfigError(f"override '{_echo(item)}': unparseable value") from None
        path = key.split(".")
        if len(path) == 1:  # a bare key: no key name is in two sections
            path = [next((s for s, keys in SCHEMA.items() if key in keys), None), key]
        node = out
        for part in path[:-1]:
            node = node.get(part) if isinstance(node, dict) else None
        if not isinstance(node, dict) or path[-1] not in node:
            raise ConfigError(f"unknown config key '{_echo(key)}'")
        node[path[-1]] = value
    return validate_config(out)


# Longest override text an error message quotes whole.
_ECHO_CHARS = 120


def _echo(text: str) -> str:
    """Override text as a message quotes it: whole, or its head and tail around an ellipsis."""
    half = _ECHO_CHARS // 2
    return text if len(text) <= _ECHO_CHARS else f"{text[:half]}\u2026{text[-half:]}"


def config_hash(cfg: dict) -> str:
    """sha256 of the canonical JSON form of the resolved config."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# Emission (deterministic, with per-key comments)
# --------------------------------------------------------------------------

def _fmt_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, str):
        return json.dumps(v)
    return str(v)


def _emit(node, indent: int, lines, comments, path):
    pad = "  " * indent
    for key, value in node.items():
        kpath = f"{path}.{key}" if path else key
        note = comments.get(kpath)
        if note:
            for line in note.splitlines():
                lines.append(f"{pad}# {line}")
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            _emit(value, indent + 1, lines, comments, kpath)
        elif isinstance(value, list):
            body = ", ".join(_fmt_scalar(v) for v in value)
            lines.append(f"{pad}{key}: [{body}]")
        else:
            lines.append(f"{pad}{key}: {_fmt_scalar(value)}")


def emit_config(cfg: dict, comments=None, header: str = "") -> str:
    """Serialize a validated config to YAML with optional per-key comments.

    Only SCHEMA's sections and keys are written, in schema order, so output
    is stable; a comment is written only at a path the emitter visits.
    """
    ordered = {section: {k: cfg[section][k] for k in keys}
               for section, keys in SCHEMA.items() if section in cfg}
    lines = []
    if header:
        lines.extend(f"# {line}" for line in header.splitlines())
    _emit(ordered, 0, lines, comments or {}, "")
    return "\n".join(lines) + "\n"
