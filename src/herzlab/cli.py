"""Config-driven batch runner with CSV/JSON reports.

Configuration files are INI-style: a [run] section naming the command,
a [grid] section (n, L, G), parameter sections ([space], [source],
[target]) holding per-axis exponent lists, command-specific blocks
([field], [ensemble], [hardy], [maximal]) and an optional [output]
section (format = csv | json).  Exponents accept 'inf'; vectors are
comma-separated, and a single value is broadcast over the axes (the
grid's n where the command has a [grid]).

Reports carry a meta block (config echo, version, truncation parameters
in effect) and a record list.  Identical configs and seeds produce
byte-identical files: floats are rendered with %.17g in CSV and via
json's shortest round-trip repr in JSON.
"""

import argparse
import cmath
import configparser
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .embedlab import (THEOREMS, EmbeddingSpec, hardy_check, necessity_fit,
                       ppn_check, seq_embedding_check)
from .frames import load_coeffs, roundtrip_error
from .grid import (DyadicGeometry, _log2_exact, check_grid_memory,
                   make_field, sealed)
from .herz import HerzParams, HypothesisError, SpaceParams, mixed_herz_norm
from .lpdecomp import (band_width, bandlimited_witness, build_system,
                       decomposition_fields, random_band_field, smooth_step)
from .maximal import fs_vector_check
from .seqspace import seq_norm
from .spaces import block_norms


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    sections: dict

    @classmethod
    def load(cls, path, command=None, seed=None):
        cp = configparser.ConfigParser(interpolation=None)
        try:
            if not cp.read(path):
                raise ConfigError(f"cannot read config file {path}")
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        sections = {name: dict(cp[name]) for name in cp.sections()}
        command = command or sections.get("run", {}).get("command")
        if command is None:
            raise ConfigError("no command given ([run] command = ... or CLI)")
        if command not in COMMANDS:
            raise ConfigError(f"unknown command {command!r}")
        if seed is not None:
            sections.setdefault("ensemble", {})["seed"] = str(seed)
        return cls(command, sections)

    def section(self, name):
        if name not in self.sections:
            raise ConfigError(f"missing [{name}] section")
        return self.sections[name]

    def get(self, section, key, default=None):
        value = self.sections.get(section, {}).get(key, default)
        if value is None:
            raise ConfigError(f"missing key {key!r} in [{section}]")
        return value

    def parsed(self, section, key, parse, what, default=None):
        """parse() of a value; a ConfigError naming [section] key if it fails."""
        text = self.get(section, key, default)
        try:
            return parse(text)
        except ValueError:
            raise ConfigError(
                f"[{section}] {key} = {text!r} is not {what}") from None

    def get_int(self, section, key, default=None, low=None):
        """An integer, at least ``low`` if given."""
        what = "an integer" if low is None else f"an integer >= {low}"
        return self.parsed(section, key, _int_at_least(low), what, default)

    def get_float(self, section, key, default=None):
        return self.parsed(section, key, float, "a number", default)

    def get_vector(self, section, key, default=None):
        return self.parsed(section, key, _vector,
                           "a comma-separated list of numbers", default)

    def get_ints(self, section, key, default=None, low=None):
        """A comma-separated list of integers, each at least ``low`` if given."""
        what = "a comma-separated list of integers"
        if low is not None:
            what += f" >= {low}"
        return self.parsed(section, key, _each(_int_at_least(low)), what,
                           default)

    def get_choice(self, section, key, choices, default=None):
        """A value that must be one of ``choices``."""
        value = self.get(section, key, default)
        if value not in choices:
            raise ConfigError(f"[{section}] {key} = {value!r} is not one of "
                              f"{', '.join(choices)}")
        return value

    def seed(self):
        return self.get_int("ensemble", "seed", low=0)

    def echo(self):
        flat = {}
        for name in sorted(self.sections):
            for key in sorted(self.sections[name]):
                flat[f"{name}.{key}"] = self.sections[name][key]
        flat["run.command"] = self.command
        return flat


def _vector(text):
    return tuple(map(float, str(text).split(",")))


def _boolean(text):
    """configparser's boolean spellings, in any case."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(text) from None


def _finite_complex(text):
    """complex, with a ValueError for nan and infinite parts."""
    value = complex(text)
    if not cmath.isfinite(value):
        raise ValueError(text)
    return value


def _nonnegative(text):
    """float, with a ValueError for nan and numbers below 0 (inf passes)."""
    value = float(text)
    if not value >= 0.0:
        raise ValueError(text)
    return value


def _each(parse):
    """parse applied to each entry of a comma-separated list."""
    return lambda text: [parse(t) for t in str(text).split(",")]


def _int_at_least(low):
    """int, with a ValueError below low (None: no bound)."""
    def parse(text):
        value = int(text)
        if low is not None and value < low:
            raise ValueError
        return value
    return parse


def _herz_from(cfg, name, n=None):
    """HerzParams of [name]; one-entry lists broadcast to n (the grid's n,
    else the longest list's length)."""
    cfg.section(name)
    lists = [cfg.get_vector(name, key) for key in ("p", "alpha", "q")]
    if n is None:
        n = max(len(t) for t in lists)
    for key, t in zip(("p", "alpha", "q"), lists):
        if len(t) not in (1, n):
            raise ConfigError(f"[{name}] {key} has {len(t)} entries, "
                              f"expected 1 or n = {n}")
    try:
        return HerzParams(*(t * n if len(t) == 1 else t for t in lists))
    except ValueError as exc:
        raise ConfigError(f"[{name}]: {exc}") from exc


def _params_from(cfg, name, family, n=None):
    """SpaceParams of section [name]; ``family`` is the default, and its
    case (B/F for functions, b/f for sequences) the one accepted."""
    herz = _herz_from(cfg, name, n)
    s, beta = cfg.get_float(name, "s"), cfg.get_float(name, "beta")
    accepted = ("B", "F") if family.isupper() else ("b", "f")
    got = cfg.get_choice(name, "family", accepted, family)
    try:
        return SpaceParams(herz, s, beta, got)
    except ValueError as exc:
        raise ConfigError(f"[{name}]: {exc}") from exc


def _grid_from(cfg, g_list=False):
    """n, L and G of [grid], or with ``g_list`` n, L and the list of G in
    [maximal] g_list.

    n must be 1, 2 or 3, L a power of two and each G a power of two >= 4
    whose field fits in memory; a ConfigError names the key.
    """
    n = cfg.parsed("grid", "n", _dimension, "1, 2 or 3")
    L = cfg.parsed("grid", "l", _power_of_two, "a power of two")
    if not g_list:
        G = cfg.parsed("grid", "g", _grid_size, "a power of two >= 4")
        _check_grid(n, G, f"[grid] g = {G}")
        return n, L, G
    grids = cfg.parsed("maximal", "g_list", _each(_grid_size),
                       "a comma-separated list of powers of two >= 4",
                       "256,512")
    for G in grids:
        _check_grid(n, G, f"[maximal] g_list = {G}")
    return n, L, grids


def _dimension(text):
    n = int(text)
    if not 1 <= n <= 3:
        raise ValueError
    return n


def _power_of_two(text):
    L = float(text)
    _log2_exact(L)
    return L


def _grid_size(text):
    G = int(text)
    if G < 4 or G & (G - 1):
        raise ValueError
    return G


def _check_grid(n, G, setting, fields=1):
    """check_grid_memory as a ConfigError led by the "[section] key =
    value" setting that gave G."""
    try:
        check_grid_memory(n, G, fields)
    except ValueError as exc:
        raise ConfigError(f"{setting}: {exc}") from None


def _grid_meta(L, G, extra=None):
    """The grid's dyadic index ranges, then the ``extra`` meta entries."""
    geo = DyadicGeometry.of(L, G)
    return {"grid.k_min": geo.k_min, "grid.k_max": geo.k_max,
            "grid.v_max": geo.v_max, **(extra or {})}


def _build_field(cfg, n, L, G):
    cfg.section("field")
    kind = cfg.get_choice("field", "kind",
                          ("zero", "constant", "witness", "band"), "zero")
    if kind == "zero":
        return make_field(n, L, G)
    if kind == "constant":
        value = cfg.parsed("field", "value", _finite_complex,
                           "a finite complex number", "1")
        return make_field(n, L, G, sealed(np.full((G,) * n, value,
                                                  dtype=np.complex128)))
    if kind == "witness":
        return bandlimited_witness(n, L, G,
                                   cfg.get_int("field", "level", "0", low=0),
                                   cfg.get_int("field", "seed", low=0))
    return random_band_field(
        n, L, G, cfg.parsed("field", "radius", _nonnegative, "a number >= 0",
                            "8"), cfg.get_int("field", "seed", low=0))


def _system_kind(cfg, default_k):
    """[system] kind and k."""
    kind = cfg.get_choice("system", "kind", ("fj", "resolution"), "fj")
    return kind, cfg.get_int("system", "k", default_k, low=1)


# -- command handlers -------------------------------------------------------


def _cmd_norm(cfg):
    n, L, G = _grid_from(cfg)
    herz = _herz_from(cfg, "space", n)
    f = _build_field(cfg, n, L, G)
    return _grid_meta(L, G), [{"norm": mixed_herz_norm(f, herz)}]


def _cmd_decompose(cfg):
    n, L, G = _grid_from(cfg)
    herz = _herz_from(cfg, "space", n)
    kind, K = _system_kind(cfg, default_k=3)
    # block_norms keeps the field's level magnitudes on it: check them too,
    # before the system is built
    _check_grid(n, G, f"[grid] g = {G}",
                1 + decomposition_fields(n, G, K, band_width(kind, L, G, K)))
    system = build_system(kind, n, L, G, K)
    f = _build_field(cfg, n, L, G)
    meta = _grid_meta(L, G, {"system.kind": system.kind,
                             "system.k": system.K})
    norms = block_norms(f, herz, system)
    return meta, [{"level": k, "block_norm": v} for k, v in enumerate(norms)]


def _cmd_phitransform(cfg):
    n, L, G = _grid_from(cfg)
    kind, K = _system_kind(cfg, default_k=3)
    system = build_system(kind, n, L, G, K)
    count = cfg.get_int("ensemble", "count", "8", low=1)
    seed = cfg.seed()
    records = []
    for t in range(count):
        f = random_band_field(n, L, G, system.band_radius(), seed + t)
        records.append({"trial": t, "relative_error":
                        roundtrip_error(f, system)})
    return _grid_meta(L, G, {"system.kind": system.kind,
                             "system.k": system.K}), records


def _cmd_seqnorm(cfg):
    params = _params_from(cfg, "space", "b")
    path = cfg.get("coeffs", "path")
    try:
        lam = load_coeffs(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"[coeffs] path = {path!r}: {exc}") from None
    meta = {"coeffs.count": len(lam.index), "coeffs.k": lam.K}
    return meta, [{"family": params.family, "norm": seq_norm(lam, params)}]


def _cmd_embed_sweep(cfg):
    # the sequence theorems: all but besov-function, the last
    spec = EmbeddingSpec(cfg.get_choice("run", "theorem", THEOREMS[:-1]),
                         _params_from(cfg, "source", "b"),
                         _params_from(cfg, "target", "b"))
    draws = cfg.get_int("ensemble", "draws", "100", low=0)
    seed = cfg.seed()
    control = cfg.parsed("ensemble", "control", _boolean,
                         "yes/no, true/false, on/off or 1/0", "no")
    levels = cfg.get_ints("ensemble", "k_list", "4,6,8", low=1)
    for K in levels:
        # a draw reaching level K spans (2^(K+2))^n cells of that level's
        # lattice, and its norms hold up to ~21 bytes a cell (tracemalloc);
        # min keeps the integers small, as 2^64 cells outgrow any memory
        if draws:
            _check_grid(spec.n, 1 << (min(K, 62) + 2),
                        f"[ensemble] k_list = {K}", 2)
    records = []
    for K in levels:
        rep = seq_embedding_check(spec, K, draws, seed, control=control)
        records.append({"K": K, "draws": rep["draws"],
                        "max_ratio": rep["max_ratio"],
                        "max_random_ratio": rep["max_random_ratio"],
                        "probe_ratio_top": rep["probe_ratios"][-1]})
    meta = {"spec.balance_class": spec.balance_class(),
            "spec.defect": spec.defect(),
            "ensemble.control": control}
    return meta, records


def _cmd_necessity(cfg):
    n, L, G = _grid_from(cfg)
    spec = EmbeddingSpec("besov-function",
                         _params_from(cfg, "source", "B", n),
                         _params_from(cfg, "target", "B", n))
    n_max = cfg.get_int("ensemble", "n_max", "4", low=1)
    rep = necessity_fit(spec, n, L, G, n_max, cfg.seed())
    meta = _grid_meta(L, G, {"fit.c_fit": rep["c_fit"],
                             "fit.c_expected": rep["c_expected"],
                             "fit.residual": rep["residual"],
                             "spec.balance_class": rep["balance_class"]})
    return meta, rep["records"]


def _cmd_maximal_check(cfg):
    n, L, grids = _grid_from(cfg, g_list=True)
    if len(set(grids)) < 2:
        raise ConfigError(f"[maximal] g_list = {grids} needs at least two "
                          "distinct sizes for the fit")
    herz = _herz_from(cfg, "space", n)
    beta = cfg.get_float("maximal", "beta")
    t = cfg.get_float("maximal", "t")
    count = cfg.get_int("ensemble", "count", "16", low=1)
    # the fields and fs_vector_check hold up to ~4.5 field sizes a field
    # (tracemalloc, n = 1-3, 256 to 2048 fields)
    for G in grids:
        _check_grid(n, G, f"[ensemble] count = {count}", 5 * count)
    seed = cfg.seed()
    records = []
    for G in grids:
        fields = bump_family(n, L, G, count, seed)
        rep = fs_vector_check(fields, herz, beta, t)
        records.append({"G": G, "ratio": rep["ratio"]})
    slopes = np.polyfit(np.log2([r["G"] for r in records]),
                        np.log2([r["ratio"] for r in records]), 1)
    meta = {"fit.log_slope": float(slopes[0]), "maximal.t": t,
            "maximal.beta": beta}
    return meta, records


def _cmd_ppn_check(cfg):
    n, L, G = _grid_from(cfg)
    source = _herz_from(cfg, "source", n)
    target = _herz_from(cfg, "target", n)
    n_max = cfg.get_int("ensemble", "n_max", "4", low=1)
    rep = ppn_check(source, target, n, L, G, n_max, cfg.seed())
    meta = _grid_meta(L, G, {"fit.gamma": rep["gamma"],
                             "fit.slope": rep["slope"],
                             "fit.residual": rep["residual"]})
    return meta, rep["records"]


def _cmd_hardy_check(cfg):
    cfg.section("hardy")
    a_list = cfg.get_vector("hardy", "a", "0.25,0.5,0.75")
    q_list = cfg.get_vector("hardy", "q", "0.5,1,2,inf")
    draws = cfg.get_int("ensemble", "draws", "100", low=0)
    length = cfg.get_int("ensemble", "length", "64", low=1)
    # hardy_check holds ~145 bytes a term (tracemalloc)
    _check_grid(1, length, f"[ensemble] length = {length}", 10)
    seed = cfg.seed()
    records = []
    for a in a_list:
        for q in q_list:
            rep = hardy_check(a, q, draws, length, seed)
            records.append({"a": a, "q": q, "worst_ratio": rep["worst_ratio"],
                            "bound": rep["bound"],
                            "ok": rep["worst_ratio"] <= rep["bound"]})
    return {"ensemble.length": length}, records


def bump_family(n, L, G, count, seed):
    """Random smooth compactly supported fields within a quarter period."""
    rng = np.random.default_rng(seed)
    x = (np.arange(G) - G // 2) * (L / G)
    fields = []
    for _ in range(count):
        vals = np.ones((G,) * n)
        for axis in range(n):
            c = rng.uniform(-L / 16.0, L / 16.0)
            w = rng.uniform(L / 64.0, L / 16.0)
            prof = (smooth_step((x - (c - w)) / (w / 2.0))
                    * smooth_step(((c + w) - x) / (w / 2.0)))
            shape = [1] * n
            shape[axis] = G
            vals = vals * prof.reshape(shape)
        amp = complex(rng.standard_normal(), rng.standard_normal())
        fields.append(make_field(n, L, G).with_values(
            sealed((amp * vals).astype(np.complex128))))
    return fields


_HANDLERS = {
    "norm": _cmd_norm,
    "decompose": _cmd_decompose,
    "phitransform": _cmd_phitransform,
    "seqnorm": _cmd_seqnorm,
    "embed-sweep": _cmd_embed_sweep,
    "necessity": _cmd_necessity,
    "maximal-check": _cmd_maximal_check,
    "ppn-check": _cmd_ppn_check,
    "hardy-check": _cmd_hardy_check,
}
COMMANDS = tuple(_HANDLERS)


def run_config(cfg):
    meta, records = _HANDLERS[cfg.command](cfg)
    full_meta = {"version": __version__, "command": cfg.command}
    full_meta.update({f"config.{k}": v for k, v in cfg.echo().items()})
    full_meta.update(meta)
    return {"meta": full_meta, "records": records}


def _format_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def render_report(report, fmt):
    meta, records = report["meta"], report["records"]
    if not records:
        raise ValueError("refusing to emit a report with no records")
    if fmt == "json":
        return json.dumps({"meta": {k: _format_cell(v) for k, v in
                                    sorted(meta.items())},
                           "records": records},
                          sort_keys=True, separators=(",", ":")) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = [f"# {k}={_format_cell(meta[k])}" for k in sorted(meta)]
    cols = list(records[0].keys())
    lines.append(",".join(cols))
    for rec in records:
        lines.append(",".join(_format_cell(rec[c]) for c in cols))
    return "\n".join(lines) + "\n"


def emit_report(report, fmt, path=None):
    text = render_report(report, fmt)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="herzlab",
        description="mixed-norm dyadic analysis experiments")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config, args.command, args.seed)
        fmt = cfg.get_choice("output", "format", ("csv", "json"), "csv")
        emit_report(run_config(cfg), fmt, args.out)
    except (ConfigError, HypothesisError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
