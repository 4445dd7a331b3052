"""Preference transforms: evaluation, signs, and the textual grammar."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paretoscope import (
    Allocation,
    Bundle,
    DimensionMismatch,
    InvalidAgent,
    Maximin,
    OwnBundle,
    ParetoscopeError,
    PartialOrderResult,
    RelativeToMean,
    RelativeToNeighborhood,
    Sign,
    Sum,
    SwfSpec,
    ValidationError,
    WeightedOwn,
    WeightedSum,
    ZeroReferencePoint,
    alloc,
    compare_info,
    cross_effect_sign,
    evaluate_transform,
    parse_swf,
    parse_transform,
    swf_label,
    transform_label,
    verify_own_monotonicity,
)

import fraction_reference


def test_own_bundle_scalar_for_one_commodity():
    assert evaluate_transform(OwnBundle(), alloc(2, 1), 1) == Fraction(2)


def test_own_bundle_vector_for_many_commodities():
    info = evaluate_transform(OwnBundle(), alloc((1, 0), (2, 1)), 2)
    assert isinstance(info, Bundle)
    assert info.quantities == (Fraction(2), Fraction(1))


def test_weighted_own_aggregates():
    a = alloc((1, 2), (0, 0))
    assert evaluate_transform(WeightedOwn((Fraction(2), Fraction(1))), a, 1) == Fraction(4)
    assert evaluate_transform(WeightedOwn(), a, 1) == Fraction(3)


def test_weights_must_be_strictly_positive():
    with pytest.raises(ValidationError):
        WeightedOwn((Fraction(0),))
    with pytest.raises(ValidationError):
        RelativeToMean((Fraction(1), Fraction(-1)))


def test_weight_dimension_checked_at_evaluation():
    with pytest.raises(DimensionMismatch):
        evaluate_transform(WeightedOwn((Fraction(1),)), alloc((1, 1), (1, 1)), 1)


def test_relative_mean_values():
    a = alloc(2, 1)
    assert evaluate_transform(RelativeToMean(), a, 1) == Fraction(4, 3)
    assert evaluate_transform(RelativeToMean(), a, 2) == Fraction(2, 3)


def test_relative_mean_zero_reference():
    with pytest.raises(ZeroReferencePoint) as exc:
        evaluate_transform(RelativeToMean(), alloc(0, 0), 1)
    assert exc.value.agent == 1


def test_relative_neighborhood_uses_declared_set_verbatim():
    a = alloc(2, 4)
    spec = RelativeToNeighborhood(frozenset({2}))
    assert evaluate_transform(spec, a, 1) == Fraction(1, 2)
    including_self = RelativeToNeighborhood(frozenset({1, 2}))
    assert evaluate_transform(including_self, a, 1) == Fraction(2, 3)


def test_relative_neighborhood_zero_reference():
    spec = RelativeToNeighborhood(frozenset({2}))
    with pytest.raises(ZeroReferencePoint):
        evaluate_transform(spec, alloc(2, 0), 1)


def test_relative_neighborhood_unknown_agent():
    spec = RelativeToNeighborhood(frozenset({3}))
    with pytest.raises(InvalidAgent):
        evaluate_transform(spec, alloc(1, 1), 1)


def test_evaluate_transform_agent_bounds():
    with pytest.raises(InvalidAgent):
        evaluate_transform(OwnBundle(), alloc(1, 1), 3)


@st.composite
def _transform_cases(draw):
    """A spec, an allocation of 1-4 agents over 1-3 commodities, and an
    agent id that may fall outside the polity.  Weight lists may not match
    the commodities, neighbourhoods may name an agent past the polity, and
    zero holdings are common, so zero references come up."""
    n_agents = draw(st.integers(1, 4))
    dimension = draw(st.integers(1, 3))
    quantity = st.sampled_from([0, 0, 0, Fraction(1, 2), 1, Fraction(2, 3), 3])
    bundles = [Bundle(tuple(draw(quantity) for _ in range(dimension))) for _ in range(n_agents)]
    size = st.sampled_from([dimension, dimension, dimension, 1, 4])
    weights = st.none() | size.flatmap(
        lambda k: st.tuples(*[st.sampled_from([Fraction(1, 2), 1, Fraction(2, 3), 3])] * k)
    )
    # one agent id in five falls outside the polity
    agents = [*range(1, n_agents + 1)] * 4
    neighbors = st.frozensets(st.sampled_from([*agents, n_agents + 1]), min_size=1, max_size=3)
    spec = draw(
        st.just(OwnBundle())
        | weights.map(WeightedOwn)
        | weights.map(RelativeToMean)
        | st.builds(RelativeToNeighborhood, neighbors, weights)
        | st.just(Sum())
    )
    return spec, Allocation(tuple(bundles)), draw(st.sampled_from([*agents, 0, n_agents + 1]))


def _evaluated(evaluate, spec, allocation, agent):
    """The information with its type, or the exception's type, text and ``agent``."""
    try:
        info = evaluate(spec, allocation, agent)
    except ParetoscopeError as exc:
        return type(exc), str(exc), getattr(exc, "agent", None)
    return type(info), info


@settings(max_examples=400)
@given(_transform_cases())
@example((RelativeToMean(), alloc(0, 0), 2))
@example((RelativeToNeighborhood(frozenset({2, 3}), (Fraction(1, 2),)), alloc(1, 0, 0), 1))
@example((RelativeToNeighborhood(frozenset({3}), (1, 2)), alloc(1, 1), 1))
@example((WeightedOwn((1, 2)), alloc((1, 2, 3), (0, 1, 0)), 1))
@example((OwnBundle(), alloc((1, 2), (0, 1)), 3))
def test_evaluate_transform_matches_the_fraction_reference(case):
    spec, allocation, agent = case
    assert _evaluated(evaluate_transform, spec, allocation, agent) == _evaluated(
        fraction_reference.evaluate_transform, spec, allocation, agent
    )


def test_compare_info_shapes():
    assert (
        compare_info(Fraction(2), Fraction(1)) is PartialOrderResult.STRICTLY_GREATER
    )
    assert (
        compare_info(Bundle((1, 1)), Bundle((1, 1))) is PartialOrderResult.EQUAL
    )
    with pytest.raises(DimensionMismatch):
        compare_info(Fraction(1), Bundle((1,)))


def test_own_monotonicity_positive_for_builtins():
    a = alloc(1, 1)
    for spec in (OwnBundle(), WeightedOwn(), RelativeToMean()):
        report = verify_own_monotonicity(spec, a, 1)
        assert report.sign is Sign.POSITIVE
    nbhd = RelativeToNeighborhood(frozenset({2}))
    assert verify_own_monotonicity(nbhd, a, 1).sign is Sign.POSITIVE


def test_own_monotonicity_zero_when_reference_is_self():
    # the agent's own growth cancels out of a self-only reference ratio
    spec = RelativeToNeighborhood(frozenset({1}))
    report = verify_own_monotonicity(spec, alloc(1, 1), 1)
    assert report.sign is Sign.ZERO
    assert report.before == report.after == Fraction(1)


def test_own_monotonicity_vector_info():
    report = verify_own_monotonicity(OwnBundle(), alloc((1, 1), (0, 0)), 1)
    assert report.sign is Sign.POSITIVE
    assert report.after.quantities == (Fraction(2), Fraction(2))


def test_cross_effect_negative_under_relative_mean():
    report = cross_effect_sign(RelativeToMean(), alloc(1, 1), 2, 1)
    assert report.sign is Sign.NEGATIVE
    assert report.before == Fraction(1)
    assert report.after == Fraction(2, 3)


def test_cross_effect_zero_under_absolute_transforms():
    assert cross_effect_sign(OwnBundle(), alloc(1, 1), 2, 1).sign is Sign.ZERO
    assert cross_effect_sign(WeightedOwn(), alloc(1, 1), 2, 1).sign is Sign.ZERO


def test_cross_effect_requires_distinct_agents():
    with pytest.raises(ValidationError):
        cross_effect_sign(RelativeToMean(), alloc(1, 1), 1, 1)


def test_probe_deltas_must_be_positive():
    with pytest.raises(ValidationError):
        verify_own_monotonicity(OwnBundle(), alloc(1, 1), 1, 0)
    with pytest.raises(ValidationError):
        cross_effect_sign(RelativeToMean(), alloc(1, 1), 2, 1, 0)


def test_parse_transform_grammar():
    assert parse_transform("own") == OwnBundle()
    assert parse_transform("weighted_own(2,1)") == WeightedOwn(
        (Fraction(2), Fraction(1))
    )
    assert parse_transform("relative_mean") == RelativeToMean()
    assert parse_transform("relative_mean(1/2,1)") == RelativeToMean(
        (Fraction(1, 2), Fraction(1))
    )
    assert parse_transform("relative_nbhd(1,2)") == RelativeToNeighborhood(
        frozenset({1, 2})
    )
    assert parse_transform("relative_nbhd(2;3,1)") == RelativeToNeighborhood(
        frozenset({2}), (Fraction(3), Fraction(1))
    )


def test_parse_transform_accepts_blank_mean_weights_and_padding():
    assert parse_transform("relative_mean()") == RelativeToMean()
    assert parse_transform(" own ") == OwnBundle()


@pytest.mark.parametrize(
    "bad, message",
    [
        ("", "cannot parse transform ''"),
        ("unknown", "unknown transform 'unknown'"),
        ("own()", "own takes no arguments"),
        ("own(1)", "own takes no arguments"),
        ("weighted_own", "weighted_own requires a weight list"),
        ("weighted_own()", "weighted_own requires a weight list"),
        ("weighted_own(0)", "aggregation weights must be strictly positive"),
        ("relative_nbhd", "relative_nbhd requires a neighbor list"),
        ("relative_nbhd(0)", "neighbor id must be a positive integer, got '0'"),
        ("relative_nbhd(x)", "neighbor id must be a positive integer, got 'x'"),
        ("relative_nbhd(;1)", "neighbor id must be a positive integer, got ''"),
        ("relative_nbhd(1;)", "empty entry in weight list: ''"),
        ("relative_mean(1,)", "empty entry in weight list: '1,'"),
    ],
)
def test_parse_transform_errors(bad, message):
    with pytest.raises(ValidationError) as caught:
        parse_transform(bad)
    assert str(caught.value) == message
    assert caught.value.key is None


def test_transform_label_round_trips():
    specs = (
        OwnBundle(),
        WeightedOwn((Fraction(1), Fraction(3))),
        RelativeToMean(),
        RelativeToMean((Fraction(1, 2),)),
        RelativeToNeighborhood(frozenset({1, 3})),
        RelativeToNeighborhood(frozenset({2}), (Fraction(2),)),
    )
    for spec in specs:
        assert parse_transform(transform_label(spec)) == spec


def test_transform_label_of_unit_weights():
    # WeightedOwn() is the default welfare value transform; unit weights are
    # labelled by the bare name, as for relative_mean
    assert transform_label(WeightedOwn()) == "weighted_own"
    assert transform_label(RelativeToMean()) == "relative_mean"


_weights = st.lists(
    st.fractions(min_value=Fraction(1, 6), max_value=8, max_denominator=6), min_size=1, max_size=3
).map(tuple)
_neighbors = st.frozensets(st.integers(1, 9), min_size=1, max_size=3)


@settings(max_examples=200)
@given(
    st.just(OwnBundle())
    | _weights.map(WeightedOwn)
    | st.just(RelativeToMean())
    | _weights.map(RelativeToMean)
    | st.builds(RelativeToNeighborhood, _neighbors, st.none() | _weights)
    | st.just(SwfSpec(Sum()))
    | st.just(SwfSpec(Maximin()))
    | st.lists(st.fractions(0, 8, max_denominator=6), min_size=1, max_size=3)
    .filter(any)
    .map(lambda weights: SwfSpec(WeightedSum(tuple(weights))))
)
def test_label_and_parse_round_trip(spec):
    """Every kind of transform and welfare functional, with fractional
    weights and one to three neighbour ids, reads back from its label."""
    if isinstance(spec, SwfSpec):
        parse, label = parse_swf, swf_label
    else:
        parse, label = parse_transform, transform_label
    text = label(spec)
    assert parse(text) == spec
    assert label(parse(text)) == text
