"""The failure-model spec grammar: one parser for CLI, serve and ``run_grid``.

A spec string is ``name`` or ``name:key=value,key=value,...`` —
``"iid:p=0.01,samples=500,seed=0"`` — with one ``name`` per registered
model family.  Model labels (``"iid(p=0.01,samples=500,seed=0)"``) parse
too, so ``parse_failure_model(model.label) == model`` round-trips and a
label read back from a record or journal resolves to the model that
wrote it.

This module is the *single source of truth* for failure-model
parameters: ``repro.cli`` ``--failure-model`` flags, the serve
protocol's ``model`` param, and ``run_grid``'s string-typed
``failure_models`` entries all resolve here, so error messages and
defaults cannot drift apart.
"""

from __future__ import annotations

from .models import (
    ExhaustiveModel,
    FailureModel,
    IIDModel,
    RandomGridModel,
    RegionalModel,
    SRLGModel,
)


def _parse_sizes(raw: str):
    if raw == "auto":
        return None
    try:
        return tuple(int(token) for token in raw.split("/") if token)
    except ValueError:
        raise ValueError(
            f"invalid sizes {raw!r}: expected slash-separated integers, e.g. sizes=0/1/2"
        ) from None


def _parse_int(name: str):
    def parse(raw: str) -> int:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"invalid {name} {raw!r}: expected an integer") from None

    return parse


def _parse_float(name: str):
    def parse(raw: str) -> float:
        try:
            return float(raw)
        except ValueError:
            raise ValueError(f"invalid {name} {raw!r}: expected a number") from None

    return parse


#: family -> (model class, {key: value parser})
MODEL_FAMILIES: dict[str, tuple[type, dict]] = {
    "random": (
        RandomGridModel,
        {
            "sizes": _parse_sizes,
            "samples": _parse_int("samples"),
            "seed": _parse_int("seed"),
        },
    ),
    "exhaustive": (ExhaustiveModel, {"k": _parse_int("k")}),
    "iid": (
        IIDModel,
        {
            "p": _parse_float("p"),
            "samples": _parse_int("samples"),
            "seed": _parse_int("seed"),
        },
    ),
    "srlg": (
        SRLGModel,
        {
            "groups": _parse_int("groups"),
            "p": _parse_float("p"),
            "samples": _parse_int("samples"),
            "seed": _parse_int("seed"),
        },
    ),
    "regional": (
        RegionalModel,
        {
            "radius": _parse_int("radius"),
            "centers": _parse_int("centers"),
            "samples": _parse_int("samples"),
            "seed": _parse_int("seed"),
        },
    ),
}


def spec_grammar() -> str:
    """A one-line usage summary per family (CLI help, error messages)."""
    lines = []
    for family, (_, keys) in MODEL_FAMILIES.items():
        args = ",".join(f"{key}=..." for key in keys)
        lines.append(f"{family}:{args}" if args else family)
    return "  ".join(lines)


def parse_failure_model(spec: str) -> FailureModel:
    """``"iid:p=0.01,samples=500,seed=0"`` -> the model it names.

    Accepts ``name``, ``name:key=value,...`` and the label form
    ``name(key=value,...)``; every key is optional (model defaults
    apply).  Raises :class:`ValueError` naming the offending part.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError(f"failure-model spec must be a non-empty string, got {spec!r}")
    text = spec.strip()
    if text.endswith(")") and "(" in text:
        # label form: name(key=value,...)
        name, _, body = text[:-1].partition("(")
    else:
        name, _, body = text.partition(":")
    name = name.strip()
    entry = MODEL_FAMILIES.get(name)
    if entry is None:
        known = ", ".join(sorted(MODEL_FAMILIES))
        raise ValueError(f"unknown failure model {name!r}; known models: {known}")
    model_cls, keys = entry
    kwargs = {}
    for part in body.split(","):
        part = part.strip()
        if not part:
            continue
        key, separator, raw = part.partition("=")
        key = key.strip()
        if not separator:
            raise ValueError(
                f"invalid failure-model argument {part!r}: expected key=value"
            )
        parser = keys.get(key)
        if parser is None:
            known = ", ".join(keys) or "(none)"
            raise ValueError(
                f"unknown argument {key!r} for failure model {name!r}; known: {known}"
            )
        kwargs[key] = parser(raw.strip())
    return model_cls(**kwargs)
