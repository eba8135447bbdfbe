"""Every numeric field of the five config dataclasses is checked. The cases
are generated from `dataclasses.fields()`, so a numeric field added without
a bound, and without a rule named here that covers it, fails this file."""

import dataclasses
import math
import pathlib

import numpy as np
import pytest

from dfqgame.game import HyperParams
from dfqgame.nets import GeneratorSpec, NetworkSpec
from dfqgame.xp import ConfigError, DatasetSpec, ExperimentConfig

ERROR = {NetworkSpec: ValueError, GeneratorSpec: ValueError,
         HyperParams: ValueError, DatasetSpec: ConfigError,
         ExperimentConfig: ConfigError}

COUNT, TUPLE, FLOAT = "int", "tuple[int, ...]", "float"

# (class, field) -> (bound, strict): a field admits values >= bound, or
# > bound when strict; a tuple field, every entry
BOUNDS = {
    (NetworkSpec, "input_dim"): (1, False),
    (NetworkSpec, "hidden"): (1, False),
    (NetworkSpec, "class_count"): (2, False),
    (GeneratorSpec, "noise_dim"): (1, False),
    (GeneratorSpec, "hidden"): (1, False),
    (GeneratorSpec, "output_dim"): (1, False),
    (GeneratorSpec, "class_count"): (1, False),
    (HyperParams, "alpha"): (0, False),
    (HyperParams, "beta"): (0, False),
    (HyperParams, "gamma"): (0, False),
    (HyperParams, "tau"): (0, True),
    (HyperParams, "lr_g"): (0, False),
    (HyperParams, "lr_q"): (0, False),
    (HyperParams, "batch_size"): (2, False),
    (HyperParams, "epochs"): (0, False),
    (HyperParams, "iters_per_epoch"): (0, False),
    (HyperParams, "lr_decay_factor"): (0, False),
    (HyperParams, "lr_decay_period"): (0, False),
    (DatasetSpec, "class_count"): (2, False),
    (DatasetSpec, "input_dim"): (1, False),
    (DatasetSpec, "samples_per_class"): (20, False),
    (DatasetSpec, "cluster_scale"): (0, True),
    (DatasetSpec, "pair_offset"): (0, True),
    (DatasetSpec, "spread"): (0, True),
    (ExperimentConfig, "seed"): (0, False),
    (ExperimentConfig, "eval_period"): (1, False),
    (ExperimentConfig, "pretrain_epochs"): (0, False),
    (ExperimentConfig, "pretrain_lr"): (0, False),
    (ExperimentConfig, "pretrain_batch"): (2, False),
}

# numeric fields with no lower bound, and the rule that checks them instead
OTHER_RULES = {
    (HyperParams, "lambda_l"): "the band 0 <= lambda_l < lambda_u <= 1",
    (HyperParams, "lambda_u"): "the band 0 <= lambda_l < lambda_u <= 1",
    (ExperimentConfig, "bits"): "QuantConfig: an integer in [2, 8]",
}

NUMERIC = [(cls, f.name, f.type) for cls in ERROR for f in dataclasses.fields(cls)
           if f.type in (COUNT, TUPLE, FLOAT)]


def ids(cases):
    return [f"{c[0].__name__}.{c[1]}" for c in cases]


def build(cls, name, kind, value):
    """`cls` with one field set; a tuple field gets a one-entry tuple."""
    return cls(**{name: (value,) if kind == TUPLE else value})


def test_every_numeric_field_has_a_bound_or_a_named_rule():
    found = {(cls, name) for cls, name, _ in NUMERIC}
    unlisted = found - set(BOUNDS) - set(OTHER_RULES)
    assert not unlisted, f"no bound and no named rule: {ids(sorted(unlisted, key=str))}"
    assert not set(BOUNDS) & set(OTHER_RULES)
    assert set(BOUNDS) | set(OTHER_RULES) <= found  # no stale entry


FLOATS = [c for c in NUMERIC if c[2] == FLOAT]


@pytest.mark.parametrize("cls, name, kind", FLOATS, ids=ids(FLOATS))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "1.0", None])
def test_a_float_field_rejects_a_non_finite_value(cls, name, kind, value):
    with pytest.raises(ERROR[cls]):
        build(cls, name, kind, value)


COUNTS = [c for c in NUMERIC if c[2] != FLOAT]


@pytest.mark.parametrize("cls, name, kind", COUNTS, ids=ids(COUNTS))
@pytest.mark.parametrize("value", [True, 3.5])
def test_a_count_field_rejects_a_bool_and_a_fraction(cls, name, kind, value):
    with pytest.raises(ERROR[cls], match=f"{name} must be an integer"):
        build(cls, name, kind, value)


BOUNDED = [c for c in NUMERIC if (c[0], c[1]) in BOUNDS]


@pytest.mark.parametrize("cls, name, kind", BOUNDED, ids=ids(BOUNDED))
def test_a_bounded_field_holds_its_bound_exactly(cls, name, kind):
    bound, strict = BOUNDS[cls, name]
    if kind == FLOAT:
        below, above = np.nextafter(bound, -math.inf), np.nextafter(bound, math.inf)
    else:
        below, above = bound - 1, bound + 1
    past, edge = (bound, above) if strict else (below, bound)
    op = ">" if strict else ">="
    with pytest.raises(ERROR[cls], match=f"{name} must be {op} {bound}, got"):
        build(cls, name, kind, past)
    build(cls, name, kind, edge)


STRINGS = [(cls, f.name) for cls in ERROR for f in dataclasses.fields(cls)
           if f.type == "str"]


@pytest.mark.parametrize("cls, name", STRINGS, ids=ids(STRINGS))
def test_a_str_field_rejects_a_value_that_is_no_string_or_path(cls, name):
    with pytest.raises(ERROR[cls], match=f"{name} must be a string or a path"):
        cls(**{name: 5})
    if name == "out_dir":  # bns_stat takes only its two names
        cls(**{name: pathlib.Path("out")})
