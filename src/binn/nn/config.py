"""Network configuration: a human-readable layer list, one line per layer.

The text format mirrors the architecture tables this package trains from:

    name: nin
    input: 3x32x32
    classes: 10
    layer: conv out=192 kernel=5 stride=1 pad=2 wbits=32 abits=32 bias=1
    layer: batchnorm eps=0.0001 momentum=0.1
    layer: relu
    ...

Precision flags: wbits/abits in {1, 2..8, 32}. Parsing and serialization
round-trip exactly; the canonical text is what gets hashed and embedded in
checkpoints.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from importlib import resources

from ..errors import DataError

# (param, type, default); params without default are required
_SCHEMAS = {
    "conv": (
        ("out", int, None),
        ("kernel", int, None),
        ("stride", int, 1),
        ("pad", int, 0),
        ("wbits", int, 32),
        ("abits", int, 32),
        ("bias", int, 1),
    ),
    "fc": (
        ("out", int, None),
        ("wbits", int, 32),
        ("abits", int, 32),
        ("bias", int, 1),
    ),
    "batchnorm": (("eps", float, 1e-4), ("momentum", float, 0.1)),
    "relu": (),
    "binact": (),
    "quantact": (("bits", int, None),),
    "maxpool": (("kernel", int, None), ("stride", int, None), ("pad", int, 0)),
    "avgpool": (("kernel", int, None), ("stride", int, None), ("pad", int, 0)),
    "dropout": (("p", float, None),),
}


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    params: tuple  # ((name, value), ...) in schema order


@dataclass(frozen=True)
class NetworkConfig:
    name: str
    input_shape: tuple[int, ...]
    classes: int
    layers: tuple[LayerSpec, ...]


def layer(kind: str, **params) -> LayerSpec:
    """Build a LayerSpec, filling schema defaults and validating names and the
    ranges of batchnorm's eps and momentum and a pool's pad."""
    if kind not in _SCHEMAS:
        raise DataError(f"unknown layer kind {kind!r}")
    schema = _SCHEMAS[kind]
    known = {name for name, _, _ in schema}
    extra = set(params) - known
    if extra:
        raise DataError(f"{kind}: unknown parameter(s) {sorted(extra)}")
    out = []
    for name, typ, default in schema:
        if name in params:
            val = typ(params[name])
        elif default is not None:
            val = default
        elif kind in ("maxpool", "avgpool") and name == "stride":
            val = int(params.get("kernel") or dict(out)["kernel"])
        else:
            raise DataError(f"{kind}: missing required parameter {name!r}")
        out.append((name, val))
    p = dict(out)
    if kind == "batchnorm" and not 0.0 < p["eps"] < math.inf:
        raise DataError(f"batchnorm: eps must be finite and > 0, got {p['eps']}")
    if kind == "batchnorm" and not 0.0 <= p["momentum"] <= 1.0:
        raise DataError(f"batchnorm: momentum must be in [0, 1], got {p['momentum']}")
    if kind in ("maxpool", "avgpool") and p["pad"] >= p["kernel"]:  # a window of padding alone
        raise DataError(f"{kind}: pad must be below kernel, got pad={p['pad']} kernel={p['kernel']}")
    return LayerSpec(kind=kind, params=tuple(out))


def config_to_text(cfg: NetworkConfig) -> str:
    lines = [
        f"name: {cfg.name}",
        f"input: {'x'.join(str(d) for d in cfg.input_shape)}",
        f"classes: {cfg.classes}",
    ]
    for spec in cfg.layers:
        parts = [f"layer: {spec.kind}"]
        parts += [f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}" for k, v in spec.params]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> NetworkConfig:
    name = None
    input_shape = None
    classes = None
    layers = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise DataError(f"config line {lineno}: expected 'key: value', got {raw!r}")
        key, _, rest = line.partition(":")
        key = key.strip()
        rest = rest.strip()
        try:
            if key == "name":
                name = rest
            elif key == "input":
                input_shape = tuple(int(d) for d in rest.split("x"))
                if min(input_shape) < 1:
                    raise DataError(f"input dims must be >= 1, got {rest!r}")
            elif key == "classes":
                classes = int(rest)
            elif key == "layer":
                tokens = rest.split()
                if not tokens:
                    raise DataError("empty layer line")
                kind = tokens[0]
                params = {}
                for tok in tokens[1:]:
                    if "=" not in tok:
                        raise DataError(f"malformed parameter {tok!r}")
                    pname, _, pval = tok.partition("=")
                    params[pname] = pval
                layers.append(layer(kind, **params))
            else:
                raise DataError(f"unknown config key {key!r}")
        except (ValueError, DataError) as e:
            raise DataError(f"config line {lineno}: {e}") from None
    if name is None or input_shape is None or classes is None:
        raise DataError("config needs name, input and classes headers")
    if not layers:
        raise DataError("config has no layers")
    return NetworkConfig(name=name, input_shape=input_shape, classes=classes, layers=tuple(layers))


def config_hash(cfg: NetworkConfig) -> str:
    return hashlib.sha256(config_to_text(cfg).encode()).hexdigest()


# --------------------------------------------------------- precision variants

VARIANTS = ("DNN", "SB", "AB", "IB", "WQB", "AQB")


def _variant_bits(variant: str, position: str, q: int) -> tuple[int, int]:
    """(wbits, abits) for a weighted layer at position first/middle/last."""
    v = variant.upper()
    if v == "DNN":
        return 32, 32
    if v == "SB":
        return (32, 32) if position in ("first", "last") else (1, 1)
    if v == "AB":
        return 1, 1
    if v == "IB":
        return (1, 32) if position == "first" else (1, 1)
    if v == "WQB":
        return q, 1
    if v == "AQB":
        return 1, q
    raise DataError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def _with_variant(specs, variant, q) -> tuple[LayerSpec, ...]:
    """Set wbits/abits on each conv/fc from its position among the weighted layers."""
    n_weighted = sum(spec.kind in ("conv", "fc") for spec in specs)
    out = []
    widx = 0
    for spec in specs:
        if spec.kind in ("conv", "fc"):
            pos = "first" if widx == 0 else ("last" if widx == n_weighted - 1 else "middle")
            wb, ab = _variant_bits(variant, pos, q)
            spec = layer(spec.kind, **{**dict(spec.params), "wbits": wb, "abits": ab})
            widx += 1
        out.append(spec)
    return tuple(out)


def mlp_config(
    input_shape,
    hidden,
    classes,
    *,
    variant="SB",
    q=2,
    batchnorm=True,
    bias=True,
    dropout=0.0,
) -> NetworkConfig:
    """Fully-connected stack in the block order bn -> (binarize) -> fc -> relu."""
    widths = list(hidden) + [classes]
    specs = []
    for i, width in enumerate(widths):
        if batchnorm and i > 0:
            specs.append(layer("batchnorm"))
        specs.append(layer("fc", out=width, bias=int(bias)))
        if i < len(widths) - 1:
            specs.append(layer("relu"))
            if dropout > 0:
                specs.append(layer("dropout", p=dropout))
    return NetworkConfig(
        name=f"mlp-{variant.lower()}-{'-'.join(map(str, widths))}",
        input_shape=tuple(input_shape),
        classes=classes,
        layers=_with_variant(specs, variant, q),
    )


def nin_config(
    *,
    variant="SB",
    q=2,
    width_scale=1.0,
    classes=10,
    input_shape=(3, 32, 32),
) -> NetworkConfig:
    """The bundled ``configs/nin.cfg`` table with its conv depths scaled by
    width_scale (0.5/0.1 give Tiny/Nano sizes) and ``classes`` fc outputs.

    The table's batchnorms put XNOR-Net's BN -> binarize -> conv/fc order
    before every conv/fc after the first (see the table's header).
    """
    table = parse_config((resources.files("binn") / "configs" / "nin.cfg").read_text())
    specs = []
    for spec in table.layers:
        params = dict(spec.params)
        if spec.kind == "conv":
            params["out"] = max(1, round(params["out"] * width_scale))
        elif spec.kind == "fc":
            params["out"] = classes
        specs.append(layer(spec.kind, **params))
    return NetworkConfig(
        name=f"nin-{variant.lower()}-x{width_scale:g}",
        input_shape=tuple(input_shape),
        classes=classes,
        layers=_with_variant(specs, variant, q),
    )
