"""Plain-text run descriptions.

A run file names the structure group, the graph, the truncation bound and
optional verification settings, in INI-like sections::

    [group]
    kind = u1

    [graph]
    vertices = x y z
    edge = a x y
    edge = b y z

    [truncation]
    bound = 2

    [verify]
    nmax = 3
    tol = 1e-8
    method = lie
    band = 2
    coarse = false

    [output]
    path = report.json

Unknown sections or keys, malformed values, and graph inconsistencies are
rejected with the offending file name and line number.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Edge, Graph
from .groups import GroupId


class ConfigError(ValueError):
    """A run description or a flag that cannot be used, with its file location."""


@dataclass(frozen=True)
class RunConfig:
    group: GroupId
    graph: Graph
    bound: int
    n_max: int | None = None
    tol: float | None = None
    method: str | None = None
    band: int | None = None
    coarse: bool | None = None
    out: str | None = None


METHODS = {"lie": "lie", "quad": "quadrature", "quadrature": "quadrature"}
_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _rule(cast, kind: str, need: str = "", test=lambda value: True):
    """``rule(key, text)``: ``cast(text)``, which must be ``kind`` and pass
    ``test`` (``need`` says what it needs), or a ``ConfigError`` naming ``key``."""

    def rule(key: str, text: str):
        try:
            value = cast(text)
        except (KeyError, ValueError):
            raise ConfigError(f"{key} must be {kind}, got {text!r}") from None
        if not test(value):
            raise ConfigError(f"{key} must be {need}")
        return value

    return rule


_COUNT = _rule(int, "an integer", "at least 0", lambda n: n >= 0)

# The [verify] and [output] keys: key -> (RunConfig field, rule).  The
# command line checks its flags by the same rules.
SETTINGS = {
    "nmax": ("n_max", _rule(int, "an integer", "at least 1", lambda n: n >= 1)),
    "tol": ("tol", _rule(float, "a number", "positive", lambda x: x > 0)),
    "method": ("method", _rule(lambda text: METHODS[text.lower()], "lie or quad")),
    "band": ("band", _COUNT),
    "coarse": ("coarse", _rule(lambda text: _BOOLS[text.lower()], "true or false")),
    "path": ("out", _rule(str, "a path")),
}
_SECTIONS = {
    "group": {"kind"},
    "graph": {"vertices", "edge"},
    "truncation": {"bound"},
    "verify": set(SETTINGS) - {"path"},
    "output": {"path"},
}


def _fail(path: str, line: int, msg: str) -> None:
    raise ConfigError(f"{path}:{line}: {msg}")


def parse_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc

    section = None
    values: dict[tuple[str, str], tuple[int, str]] = {}
    edges: list[tuple[int, str]] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if text.startswith("[") and text.endswith("]"):
            section = text[1:-1].strip().lower()
            if section not in _SECTIONS:
                _fail(path, lineno, f"unknown section [{section}]")
            continue
        if "=" not in text:
            _fail(path, lineno, "expected key = value")
        key, _, val = text.partition("=")
        key, val = key.strip().lower(), val.strip()
        if section is None:
            _fail(path, lineno, "key outside any section")
        if key not in _SECTIONS[section]:
            _fail(path, lineno, f"unknown key {key!r} in section [{section}]")
        if not val:
            _fail(path, lineno, f"empty value for {key!r}")
        if section == "graph" and key == "edge":
            edges.append((lineno, val))
            continue
        if (section, key) in values:
            _fail(path, lineno, f"duplicate key {key!r} in section [{section}]")
        values[(section, key)] = (lineno, val)

    def need(section: str, key: str) -> tuple[int, str]:
        got = values.get((section, key))
        if got is None:
            raise ConfigError(f"{path}: missing {key!r} in section [{section}]")
        return got

    lineno, kind = need("group", "kind")
    try:
        group = GroupId(kind.lower())
    except ValueError:
        _fail(path, lineno, f"unknown group kind {kind!r} (use u1 or su2)")

    lineno, vnames = need("graph", "vertices")
    vertices = vnames.split()
    if len(set(vertices)) != len(vertices):
        _fail(path, lineno, "duplicate vertex names")
    if not edges:
        raise ConfigError(f"{path}: section [graph] declares no edges")
    built = []
    seen_ids = set()
    for lineno, val in edges:
        parts = val.split()
        if len(parts) != 3:
            _fail(path, lineno, "edge needs exactly: name source target")
        name, src, dst = parts
        if name in seen_ids:
            _fail(path, lineno, f"duplicate edge name {name!r}")
        seen_ids.add(name)
        for v in (src, dst):
            if v not in vertices:
                _fail(path, lineno, f"edge endpoint {v!r} is not a declared vertex")
        built.append(Edge(name, src, dst))
    graph = Graph(vertices, built)

    lineno, btext = need("truncation", "bound")
    bound = _checked(path, lineno, _COUNT, "bound", btext)
    settings = {}
    for (section, key), (lineno, text) in values.items():
        if section in ("verify", "output"):
            field, rule = SETTINGS[key]
            settings[field] = _checked(path, lineno, rule, key, text)
    return RunConfig(group=group, graph=graph, bound=bound, **settings)


def _checked(path: str, lineno: int, rule, key: str, text: str):
    try:
        return rule(key, text)
    except ValueError as exc:
        _fail(path, lineno, str(exc))
