"""Config-driven batch runner with CSV/JSON reports.

Configuration files are INI-style: a [run] section naming the command,
a [grid] section (n, L, G), parameter sections ([space], [source],
[target]) holding per-axis exponent lists, command-specific blocks
([field], [ensemble], [hardy], [maximal]) and an optional [output]
section (format = csv | json).  Exponents accept 'inf'; vectors are
comma-separated, scalars broadcast over axes.

Reports carry a meta block (config echo, version, truncation parameters
in effect) and a record list.  Identical configs and seeds produce
byte-identical files: floats are rendered with %.17g in CSV and via
json's shortest round-trip repr in JSON.
"""

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .embedlab import (EmbeddingSpec, hardy_check, necessity_fit, ppn_check,
                       seq_embedding_check)
from .frames import load_coeffs, roundtrip_error
from .grid import DyadicGeometry, make_field
from .herz import HerzParams, HypothesisError, mixed_herz_norm
from .lpdecomp import (bandlimited_witness, build_fj_pair, build_resolution,
                       random_band_field, smooth_step)
from .maximal import fs_vector_check
from .seqspace import SeqSpaceParams, b_norm, f_norm
from .spaces import SpaceParams, block_norms

COMMANDS = ("norm", "decompose", "phitransform", "seqnorm", "embed-sweep",
            "necessity", "maximal-check", "ppn-check", "hardy-check")


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    sections: dict

    @classmethod
    def load(cls, path, command=None, seed=None):
        cp = configparser.ConfigParser()
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

    def get_int(self, section, key, default=None):
        return self.parsed(section, key, int, "an integer", default)

    def get_float(self, section, key, default=None):
        return self.parsed(section, key, _exponent, "a number", default)

    def get_vector(self, section, key, default=None):
        return self.parsed(section, key, _vector,
                           "a comma-separated list of numbers", default)

    def get_ints(self, section, key, default=None):
        return self.parsed(section, key,
                           lambda text: [int(t) for t in str(text).split(",")],
                           "a comma-separated list of integers", default)

    def seed(self):
        return self.get_int("ensemble", "seed")

    def echo(self):
        flat = {}
        for name in sorted(self.sections):
            for key in sorted(self.sections[name]):
                flat[f"{name}.{key}"] = self.sections[name][key]
        flat["run.command"] = self.command
        return flat


def _exponent(text):
    text = str(text).strip()
    if text.lower() in ("inf", "infinity"):
        return math.inf
    return float(text)


def _vector(text):
    return tuple(_exponent(part) for part in str(text).split(","))


def _herz_from(cfg, name):
    cfg.section(name)
    p, alpha, q = (cfg.get_vector(name, key) for key in ("p", "alpha", "q"))
    n = max(len(p), len(alpha), len(q))
    bc = lambda t: t * n if len(t) == 1 else t
    try:
        return HerzParams(bc(p), bc(alpha), bc(q))
    except ValueError as exc:
        raise ConfigError(f"[{name}]: {exc}") from exc


def _params_from(cfg, name, cls, family):
    """SeqSpaceParams or SpaceParams (cls) of section [name]."""
    herz = _herz_from(cfg, name)
    s, beta = cfg.get_float(name, "s"), cfg.get_float(name, "beta")
    try:
        return cls(herz, s, beta, cfg.get(name, "family", family))
    except ValueError as exc:
        raise ConfigError(f"[{name}]: {exc}") from exc


def _grid_from(cfg):
    n = cfg.get_int("grid", "n")
    L = cfg.get_float("grid", "l")
    G = cfg.get_int("grid", "g")
    return n, L, G


def _grid_meta(n, L, G):
    geo = DyadicGeometry.of(make_field(n, L, G))
    return {"grid.k_min": geo.k_min, "grid.k_max": geo.k_max,
            "grid.v_max": geo.v_max}


def _build_field(cfg, n, L, G):
    sec = cfg.section("field")
    kind = sec.get("kind", "zero")
    if kind == "zero":
        return make_field(n, L, G)
    if kind == "constant":
        f = make_field(n, L, G)
        value = cfg.parsed("field", "value", complex, "a complex number", "1")
        return f.with_values(np.full((G,) * n, value, dtype=np.complex128))
    if kind == "witness":
        return bandlimited_witness(n, L, G, cfg.get_int("field", "level", "0"),
                                   cfg.get_int("field", "seed"))
    if kind == "band":
        return random_band_field(n, L, G, cfg.get_float("field", "radius", "8"),
                                 cfg.get_int("field", "seed"))
    raise ConfigError(f"unknown field kind {kind!r}")


def _system_from(cfg, n, L, G, default_k):
    kind = cfg.sections.get("system", {}).get("kind", "fj")
    K = cfg.get_int("system", "k", default_k)
    if kind == "resolution":
        return build_resolution(n, L, G, K)
    if kind == "fj":
        return build_fj_pair(n, L, G, K)
    raise ConfigError(f"unknown system kind {kind!r}")


# -- command handlers -------------------------------------------------------


def _cmd_norm(cfg):
    n, L, G = _grid_from(cfg)
    herz = _herz_from(cfg, "space")
    f = _build_field(cfg, n, L, G)
    meta = _grid_meta(n, L, G)
    return meta, [{"norm": mixed_herz_norm(f, herz)}]


def _cmd_decompose(cfg):
    n, L, G = _grid_from(cfg)
    herz = _herz_from(cfg, "space")
    f = _build_field(cfg, n, L, G)
    system = _system_from(cfg, n, L, G, default_k=3)
    meta = _grid_meta(n, L, G)
    meta["system.kind"] = system.kind
    meta["system.k"] = system.K
    norms = block_norms(f, herz, system)
    return meta, [{"level": k, "block_norm": v} for k, v in enumerate(norms)]


def _cmd_phitransform(cfg):
    n, L, G = _grid_from(cfg)
    system = _system_from(cfg, n, L, G, default_k=3)
    count = cfg.get_int("ensemble", "count", "8")
    seed = cfg.seed()
    records = []
    for t in range(count):
        f = random_band_field(n, L, G, system.band_radius(), seed + t)
        records.append({"trial": t, "relative_error":
                        roundtrip_error(f, system)})
    meta = _grid_meta(n, L, G)
    meta["system.kind"] = system.kind
    meta["system.k"] = system.K
    return meta, records


def _cmd_seqnorm(cfg):
    params = _params_from(cfg, "space", SeqSpaceParams, "b")
    path = cfg.get("coeffs", "path")
    lam = load_coeffs(path)
    meta = {"coeffs.count": len(lam.entries), "coeffs.k": lam.K}
    value = b_norm(lam, params) if params.family == "b" else f_norm(lam, params)
    return meta, [{"family": params.family, "norm": value}]


def _cmd_embed_sweep(cfg):
    spec = EmbeddingSpec(cfg.get("run", "theorem"),
                         _params_from(cfg, "source", SeqSpaceParams, "b"),
                         _params_from(cfg, "target", SeqSpaceParams, "b"))
    draws = cfg.get_int("ensemble", "draws", "100")
    seed = cfg.seed()
    control = cfg.get("ensemble", "control", "no") in ("yes", "true", "1")
    levels = cfg.get_ints("ensemble", "k_list", "4,6,8")
    records = []
    for K in levels:
        rep = seq_embedding_check(spec, K, draws, seed, control=control)
        records.append({"K": K, "draws": rep["draws"],
                        "max_ratio": rep["max_ratio"],
                        "max_random_ratio": rep["max_random_ratio"],
                        "probe_ratio_top": rep["probe_ratios"][-1]})
    meta = {"spec.balance_class": spec.balance_class(),
            "spec.defect": f"{spec.defect():.17g}",
            "ensemble.control": control}
    return meta, records


def _cmd_necessity(cfg):
    n, L, G = _grid_from(cfg)
    spec = EmbeddingSpec("besov-function",
                         _params_from(cfg, "source", SpaceParams, "B"),
                         _params_from(cfg, "target", SpaceParams, "B"))
    n_max = cfg.get_int("ensemble", "n_max", "4")
    rep = necessity_fit(spec, n, L, G, n_max, cfg.seed())
    meta = _grid_meta(n, L, G)
    meta.update({"fit.c_fit": f"{rep['c_fit']:.17g}",
                 "fit.c_expected": f"{rep['c_expected']:.17g}",
                 "fit.residual": f"{rep['residual']:.17g}",
                 "spec.balance_class": rep["balance_class"]})
    return meta, rep["records"]


def _cmd_maximal_check(cfg):
    herz = _herz_from(cfg, "space")
    n = cfg.get_int("grid", "n")
    L = cfg.get_float("grid", "l")
    beta = cfg.get_float("maximal", "beta")
    t = cfg.get_float("maximal", "t")
    count = cfg.get_int("ensemble", "count", "16")
    seed = cfg.seed()
    grids = cfg.get_ints("maximal", "g_list", "256,512")
    records = []
    for G in grids:
        fields = bump_family(n, L, G, count, seed)
        rep = fs_vector_check(fields, herz, beta, t)
        records.append({"G": G, "ratio": rep["ratio"]})
    slopes = np.polyfit(np.log2([r["G"] for r in records]),
                        np.log2([r["ratio"] for r in records]), 1)
    meta = {"fit.log_slope": f"{float(slopes[0]):.17g}",
            "maximal.t": f"{t:.17g}", "maximal.beta": f"{beta:.17g}"}
    return meta, records


def _cmd_ppn_check(cfg):
    n, L, G = _grid_from(cfg)
    source = _herz_from(cfg, "source")
    target = _herz_from(cfg, "target")
    n_max = cfg.get_int("ensemble", "n_max", "4")
    rep = ppn_check(source, target, n, L, G, n_max, cfg.seed())
    meta = _grid_meta(n, L, G)
    meta.update({"fit.gamma": f"{rep['gamma']:.17g}",
                 "fit.slope": f"{rep['slope']:.17g}",
                 "fit.residual": f"{rep['residual']:.17g}"})
    return meta, rep["records"]


def _cmd_hardy_check(cfg):
    cfg.section("hardy")
    a_list = cfg.get_vector("hardy", "a", "0.25,0.5,0.75")
    q_list = cfg.get_vector("hardy", "q", "0.5,1,2,inf")
    draws = cfg.get_int("ensemble", "draws", "100")
    length = cfg.get_int("ensemble", "length", "64")
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
            (amp * vals).astype(np.complex128)))
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
        report = run_config(cfg)
        fmt = cfg.sections.get("output", {}).get("format", "csv")
        emit_report(report, fmt, args.out)
    except (ConfigError, HypothesisError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
