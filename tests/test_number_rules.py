"""Every number a public type or builder takes passes one declared rule.

The arguments are the ruled fields of the package's public dataclasses and
the numeric arguments of the builders. Each takes every special value (a
bool, a string, None, ints past the largest double, NaN, the infinities, a
subnormal, signed zeros, numpy scalars and Fractions), and hypothesis draws
more: floats, small ints, numpy scalars and Fractions. Each value either
constructs, or raises InvalidArgumentError naming the argument; no other
exception gets out. A value its rule rejects always raises, with the message
the rule gives. CustomModel's ids hold their numbers as text: each number
slot of each id takes a fixed list of texts, and each field takes values
that are not strings.
"""

import dataclasses
import math
import numbers
import re
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import jumpsift as js
from jumpsift import CustomModel, InvalidArgumentError, Model1, Model3, ThresholdSpec
from jumpsift.config import RUN_PARAMETERS
from jumpsift.grids import (COUNT, FINITE, INTEGER, JITTER, NONNEGATIVE, POSITIVE, SIZE,
                            _check_number)

PUBLIC_DATACLASSES = [obj for obj in (getattr(js, name) for name in js.__all__)
                      if isinstance(obj, type) and dataclasses.is_dataclass(obj)]

# What a valid instance of each ruled type needs beyond its defaults.
REQUIRED = {
    js.ThresholdSpec: {"beta": 0.9},
    js.PoissonMixtureCdf: {"lam_t": 1.0, "var_one": 1.0},
    js.ExperimentConfig: {"model": Model1(), "threshold": ThresholdSpec(0.9), "n": 50},
    js.RunSettings: {"model": Model1(), "n": 50, "t_end": 1.0, "n_paths": 4, "beta": 0.9,
                     "scale_c": 1.0, "substeps": 1, "jitter": 0.0, "parallelism": 1,
                     "seed": 1},
    js.GroundTruth: {"spot_variance": np.ones(3), "refinement": 1,
                     "jumps": js.JumpTable((), ()), "continuous_increments": np.zeros(2)},
}
# A RunSettings message names the config key of a field.
KEY_OF = {p.field: p.key for p in RUN_PARAMETERS}

GRID = js.build_uniform_grid(4, 1.0)

# (label, call, valid arguments, the rule of each numeric one)
BUILDERS = [
    ("build_uniform_grid", js.build_uniform_grid, {"n": 4, "t_end": 1.0},
     {"n": SIZE, "t_end": POSITIVE}),
    ("build_irregular_grid", js.build_irregular_grid,
     {"n": 4, "t_end": 1.0, "jitter": 0.3, "seed": 1},
     {"n": SIZE, "t_end": POSITIVE, "jitter": JITTER, "seed": INTEGER}),
    ("refine", lambda substeps: js.refine(GRID, substeps), {"substeps": 2},
     {"substeps": SIZE}),
    ("build_histogram",
     lambda bin_count, lo, hi: js.build_histogram([-0.5, 0.1, 0.7], bin_count, (lo, hi)),
     {"bin_count": 10, "lo": -4.0, "hi": 4.0},
     {"bin_count": SIZE, "lo": FINITE, "hi": FINITE}),
    ("small_jump_bias_bound",
     lambda h, t_end: js.small_jump_bias_bound(Model3(), ThresholdSpec(0.9), h, t_end),
     {"h": 1e-3, "t_end": 1.0}, {"h": POSITIVE, "t_end": POSITIVE}),
    ("simulate", lambda seed: js.simulate(Model1(), GRID, 1, seed), {"seed": 1},
     {"seed": INTEGER}),
    ("path_seed", js.path_seed, {"base_seed": 1, "path_index": 0},
     {"base_seed": INTEGER, "path_index": INTEGER}),
]
# The histogram's lo and hi are the two ends of its value_range.
MESSAGE_NAME = {"lo": "value_range", "hi": "value_range"}

# (label, call, valid arguments, the argument drawn, the name its message
# gives, its rule, whether the call keeps the checked value as a field)
ARGUMENTS = [
    *((f"{cls.__name__}.{f.name}", cls, REQUIRED.get(cls, {}), f.name,
       KEY_OF[f.name] if cls is js.RunSettings else f.name, f.metadata["rule"], True)
      for cls in PUBLIC_DATACLASSES for f in dataclasses.fields(cls) if "rule" in f.metadata),
    *((f"{label}({arg})", call, valid, arg, MESSAGE_NAME.get(arg, arg), rule, False)
      for label, call, valid, rules in BUILDERS for arg, rule in rules.items()),
]

SPECIAL_VALUES = [
    True, False, "x", "1.0", None, 10**400, -10**400, 2**62, math.nan, math.inf, -math.inf,
    5e-324, -5e-324, 0.0, -0.0, 1, 2.5, 0.3, -0.7, 1e300, np.float32(0.25), np.float32(-3.5),
    np.float32(math.nan), np.int64(3), np.int64(-2), np.int64(0), Fraction(1, 3), Fraction(7),
    Fraction(10**400, 3),
]
# Ints stay small: a count its rule accepts sizes an array that is really allocated.
VALUES = (st.floats() | st.integers(-3, 64) | st.floats(width=32).map(np.float32)
          | st.integers(-3, 64).map(np.int64) | st.fractions(max_denominator=1000))


def rule_message(name, value, rule):
    """The message rule gives for value, or None if it passes."""
    try:
        _check_number(name, value, rule)
    except InvalidArgumentError as exc:
        return str(exc)
    return None


def check(argument, value):
    label, call, valid, arg, name, rule, kept = argument
    rejected = rule_message(name, value, rule)
    try:
        out = call(**{**valid, arg: value})
    except InvalidArgumentError as exc:
        message = str(exc)
        assert re.search(rf"(^|\W){re.escape(name)}(\W|$)", message), (label, value, message)
        if rejected is not None:
            assert message == rejected, label
        return
    assert rejected is None, (label, value)
    if kept:
        stored = getattr(out, arg)
        integral = rule[0] is numbers.Integral
        assert type(stored) is (int if integral else float)
        assert stored == (int(value) if integral else float(value))


def test_every_special_value_of_every_argument():
    for argument in ARGUMENTS:
        for value in SPECIAL_VALUES:
            check(argument, value)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.sampled_from(ARGUMENTS), VALUES)
def test_a_number_constructs_or_fails_naming_its_argument(argument, value):
    check(argument, value)


def test_every_float_field_of_a_public_dataclass_has_a_rule():
    unruled = [f"{cls.__name__}.{f.name}" for cls in PUBLIC_DATACLASSES
               for f in dataclasses.fields(cls)
               if f.type in ("float", float) and "rule" not in f.metadata]
    assert unruled == []


def test_run_settings_and_experiment_config_share_each_rule():
    def rules(cls):
        return {f.name: f.metadata["rule"] for f in dataclasses.fields(cls)
                if "rule" in f.metadata}
    settings_rules, config_rules = rules(js.RunSettings), rules(js.ExperimentConfig)
    config_rules["seed"] = config_rules.pop("base_seed")
    for name, rule in config_rules.items():
        assert settings_rules[name] is rule, name
    spec_rules = rules(js.ThresholdSpec)
    assert (settings_rules["beta"], settings_rules["scale_c"]) == (spec_rules["beta"],
                                                                  spec_rules["scale_c"])
    assert COUNT[1] == SIZE[1]  # a size's message at 0 is a count's


# Each number slot of a CustomModel id: (field, the id with {} for the number's
# text, the number's name, its rules in the order they are checked, its index
# in compound_poisson_law's value, or for jumps in (intensity, size_std)).
CUSTOM_SLOTS = [
    ("drift", "constant:{}", "drift", (FINITE,), 0),
    ("spot_vol", "constant:{}", "spot_vol sigma", (POSITIVE,), 1),
    ("jumps", "compound-poisson:{},0.5", "jump intensity", (NONNEGATIVE,), 0),
    ("jumps", "compound-poisson:2,{}", "jump size_std", (FINITE, POSITIVE), 1),
    ("jumps", "compound-poisson:0,{}", "jump size_std", (FINITE,), 1),
]
CUSTOM_TEXTS = ["nan", "inf", "-inf", "1e400", "-1", "0", "-0", "5e-324", "1_0", " 2 ", "abc", ""]


def custom_cases():
    """(field, id, number name, number, expected message or None, index) of
    each text in each slot; the number is None where the text does not parse."""
    for field, template, name, rules, index in CUSTOM_SLOTS:
        for text in CUSTOM_TEXTS:
            spec = template.format(text)
            try:
                value = float(text)
            except ValueError:
                yield field, spec, name, None, f"bad {field} id {spec!r}", index
                continue
            rejected = next(filter(None, (rule_message(name, value, r) for r in rules)), None)
            yield field, spec, name, value, rejected, index


def test_every_text_of_every_custom_model_number():
    for field, spec, name, value, rejected, index in custom_cases():
        try:
            law = js.compound_poisson_law(CustomModel(**{field: spec}))
        except InvalidArgumentError as exc:
            message = str(exc)
            assert rejected is not None, (spec, message)
            assert re.search(rf"(^|\W)({field}|{name})(\W|$)", message), (spec, message)
            continue
        assert rejected is None, spec
        if field == "jumps":
            intensity = float(spec.removeprefix("compound-poisson:").split(",")[0])
            if intensity == 0.0:  # no jumps
                assert law[2] is None, spec
                continue
            law = law[2]
        assert law[index].hex() == value.hex(), spec


def test_a_custom_model_number_its_rule_rejects_gets_the_rules_message():
    for field, spec, _, _, rejected, _ in custom_cases():
        if rejected is not None:
            try:
                CustomModel(**{field: spec})
            except InvalidArgumentError as exc:
                assert str(exc) == rejected
            else:
                raise AssertionError(spec)


def test_a_custom_model_id_that_is_not_a_string_names_its_field():
    for field in ("drift", "spot_vol", "jumps"):
        for value in (None, 5, True, b"none"):
            try:
                CustomModel(**{field: value})
            except InvalidArgumentError as exc:
                assert str(exc) == f"{field} id must be a string, got {value!r}"
            else:
                raise AssertionError((field, value))
