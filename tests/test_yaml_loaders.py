"""libyaml and the pure-Python YAML loader read configs and overrides alike.

`config._load_yaml` parses with libyaml when PyYAML has it and the text is
not `_PURE_ONLY`, and re-parses refused text with the pure-Python loader.
These tests hold both parsers to the same values, and `_load_yaml` to the
pure loader's values and error texts.
"""

import ast
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from qfcring import config
from qfcring.config import ConfigError, _load_with, _Loader, default_config_text

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"

needs_libyaml = pytest.mark.skipif(config._CLoader is None, reason="PyYAML built without libyaml")


def _corpus_overrides():
    spec = importlib.util.spec_from_file_location("make_goldens", ROOT / "scripts" / "make_goldens.py")
    make_goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_goldens)
    return [item for overrides in make_goldens.CORPUS.values() for item in overrides]


_OVERRIDE = re.compile(r"^[A-Za-z_][\w]*(\.[\w.]+)?=")


def _test_overrides():
    """Every literal `key=value` string in the test modules."""
    found = set()
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and _OVERRIDE.match(node.value):
                found.add(node.value)
    return sorted(found)


def _yaml_files():
    files = [p for p in sorted((TESTS / "fixtures").rglob("*")) if p.is_file()]
    return files + [TESTS / "golden" / "default_run" / "calibrated_config.yaml"]


OVERRIDES = _corpus_overrides() + _test_overrides()


def _outcome(load, text, where=""):
    try:
        return "value", load(text, where)
    except (yaml.YAMLError, ValueError, ConfigError) as exc:
        return type(exc), str(exc)


def _pure(text, where=""):
    return _load_with(_Loader, text, where)


def test_the_inputs_are_collected():
    assert len(OVERRIDES) > 100 and len(_yaml_files()) >= 3
    assert "experiment.power_spacing=linear" in OVERRIDES


@needs_libyaml
@pytest.mark.parametrize("path", _yaml_files(), ids=lambda p: p.name)
def test_config_files_read_alike(path):
    text = path.read_text(encoding="utf-8")
    assert _outcome(lambda t, w: _load_with(config._CLoader, t, w), text) == _outcome(_pure, text)
    assert _outcome(config._load_yaml, text) == _outcome(_pure, text)


@needs_libyaml
def test_packaged_config_reads_alike_and_through_libyaml():
    text = default_config_text()
    assert not config._PURE_ONLY.search(text)
    assert _load_with(config._CLoader, text, "") == _pure(text)


@needs_libyaml
def test_override_values_read_alike():
    for item in OVERRIDES:
        key, _, raw = item.partition("=")
        pure = _outcome(_pure, raw, key)
        assert _outcome(config._load_yaml, raw, key) == pure, item
        libyaml = _outcome(lambda t, w: _load_with(config._CLoader, t, w), raw, key)
        if libyaml[0] == "value" and not config._PURE_ONLY.search(raw):
            assert libyaml == pure, item   # a refusal is re-parsed by the pure loader


MALFORMED = [
    "a: [1, 2", "a: b: c", "{a: 1", "'open", '"open', "a:\n  - 1\n - 2", "- a\nb: 1",
    "a: 1\n---\nb: 2", "a: *nope", "%YAML 2.0\n--- 1", "a: @x", "a: `x", "[1, 2]]",
    "\ta: 1", "[1, 2? 3]", "a: |#",
    "a: 1\na: 2", "device:\n  x: 1\n  x: 2", "{1500: 1, 1500.0: 2}",
    "a:\n  b: 1\n  c:\n    d: 1\n    d: 2", "x: 1" + "0" * 5000,
    "[{a: 1, a: 2}]", "x: [1, [{a: 1}, {b: 2, b: 3}]]",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_and_repeated_key_yaml_refused_alike(text, monkeypatch):
    # _parse_config and apply_overrides turn these into ConfigErrors; the text
    # of each must not depend on which parser ran.
    got = _outcome(config._load_yaml, text, "k")
    assert got[0] != "value" and got == _outcome(_pure, text, "k")

    def config_error(**pure):
        if pure:
            monkeypatch.setattr(config, "_CLoader", None)
        try:
            config._parse_config(text, "<text>")
        except ConfigError as exc:
            return str(exc)
        finally:
            monkeypatch.undo()

    assert config_error() == config_error(pure=True)


@pytest.mark.parametrize("text, where, message", [
    ("[{a: 1, a: 2}]", "", "config key '[0]' lists 'a' more than once"),
    ("[{a: 1, a: 2}]", "k", "config key 'k[0]' lists 'a' more than once"),
    ("x: [1, [{a: 1}, {b: 2, b: 3}]]", "k", "config key 'k.x[1][1]' lists 'b' more than once"),
    ("a: &m {x: 1, x: 2}\nb: [*m]", "", "config key 'a' lists 'x' more than once"),
])
def test_repeated_key_inside_a_sequence_names_its_path(text, where, message):
    assert _outcome(config._load_yaml, text, where) == (ConfigError, message)
    assert _outcome(_pure, text, where) == (ConfigError, message)


def test_an_alias_to_an_enclosing_node_loads_without_recursing():
    for load in (config._load_yaml, _pure):
        seq = load("&a [1, {b: [*a]}]", "k")
        assert seq[1]["b"][0] is seq
        mapping = load("&a {b: *a}", "k")
        assert mapping["b"] is mapping


@needs_libyaml
def test_deep_nesting_does_not_recurse_in_the_key_check():
    for text in ("x: " + "[" * 3000 + "]" * 3000, "x: " + "{a: " * 3000 + "1" + "}" * 3000):
        assert isinstance(config._load_yaml(text, "k"), dict)


@needs_libyaml
@pytest.mark.parametrize("text", ["!", "? !", "a: !", "[1, 2? 3]", "{a? b: 1}", "a: |#",
                                  "a\t?", "x: a\tb", "\r\n\ufeff", "\r\n\ufeff&a "])
def test_text_libyaml_reads_differently_goes_to_the_pure_loader(text):
    # libyaml reads these differently (a value where the pure loader raises, or
    # '' where it gives None); _PURE_ONLY keeps them away from it.
    libyaml = _outcome(lambda t, w: _load_with(config._CLoader, t, w), text)
    assert libyaml[0] == "value" and libyaml != _outcome(_pure, text)
    assert config._PURE_ONLY.search(text)
    assert _outcome(config._load_yaml, text) == _outcome(_pure, text)


_YAML_CHARS = list("ab01:-,.[]{}#&*!|>?'\"%@` \t\n\r_eE+~") + ["\n  ", ": ", "- ", "1e3",
                                                             "null", "é", "\ufeff"]


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(parts=st.lists(st.sampled_from(_YAML_CHARS), max_size=14))
def test_load_yaml_keeps_the_pure_loaders_outcome_on_random_text(parts):
    text = "".join(parts)
    assert _outcome(config._load_yaml, text, "k") == _outcome(_pure, text, "k")


def test_without_libyaml_the_same_config_loads(cfg):
    overrides = ["experiment.power_spacing=linear", "constraints.t_step_mK=2.5e1",
                 "experiment.widths_nm=[1500, 1400.0]"]
    child = (
        "import json, sys\n"
        "sys.modules['yaml._yaml'] = None\n"
        "import yaml\n"
        "from qfcring import config\n"
        "assert not yaml.__with_libyaml__ and config._CLoader is None\n"
        f"cfg = config.apply_overrides(config.default_config(), {overrides!r})\n"
        "print(json.dumps(cfg, sort_keys=True))\n"
    )
    out = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                         env=src_env(), check=True).stdout
    assert json.loads(out) == config.apply_overrides(cfg, overrides)


# Text the pure-Python loader reads (" #!" is _PURE_ONLY) nested deeper than
# the recursion limit: its composer recurses, and both entry points must turn
# the RecursionError into a ConfigError (exit 2).
DEEP_VALUE = "[" * 3000 + "]" * 3000 + " #!"


def _deep_argvs(tmp_path):
    """`match` argvs that pass DEEP_VALUE as an override and in a --config file."""
    deep = tmp_path / "deep.yaml"
    deep.write_text("device:\n  x: " + DEEP_VALUE + "\n", encoding="utf-8")
    out_dir = str(tmp_path / "out")
    return [["match", "--override", "device.x=" + DEEP_VALUE, "--out-dir", out_dir],
            ["match", "--config", str(deep), "--out-dir", out_dir]]


def test_deep_nesting_for_the_pure_loader_is_a_config_error(tmp_path, capsys):
    from qfcring import cli

    assert [cli.main(argv) for argv in _deep_argvs(tmp_path)] == [2, 2]
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [r["error"] for r in records] == ["ConfigError", "ConfigError"]
    assert records[0]["message"].endswith(" #!': unparseable value")
    assert records[1]["message"].endswith("deep.yaml: YAML parse error: "
                                          "maximum recursion depth exceeded "
                                          "while calling a Python object")


def test_deep_nesting_without_libyaml_is_a_config_error(tmp_path):
    child = (
        "import json, sys\n"
        "sys.modules['yaml._yaml'] = None\n"
        "import yaml\n"
        "from qfcring import cli, config\n"
        "assert not yaml.__with_libyaml__ and config._CLoader is None\n"
        f"print(json.dumps([cli.main(argv) for argv in {_deep_argvs(tmp_path)!r}]))\n"
    )
    out = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                         env=src_env(), check=True)
    assert json.loads(out.stdout) == [2, 2]
    assert [json.loads(line)["error"] for line in out.stderr.splitlines()] == [
        "ConfigError", "ConfigError"]
