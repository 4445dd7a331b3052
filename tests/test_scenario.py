"""Scenario file parsing and validation."""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paretoscope import (
    BoxGrid,
    ExplicitList,
    FixedTotalLattice,
    InternalInvariant,
    Maximin,
    Move,
    OwnBundle,
    ParseError,
    Polity,
    RelativeToMean,
    RelativeToNeighborhood,
    ValidationError,
    WeightedSum,
    alloc,
    count_feasible,
    load_scenario,
    parse_scenario,
)
from paretoscope import scenario as scenario_module
from paretoscope.cli import main
from paretoscope.scenario import _Literals, _parse_allocation

DATA = Path(__file__).parent / "data"

MINIMAL = """\
# smallest useful polity
agents = 2
commodities = 1
feasible.kind = box_grid
feasible.levels = 0,1,2
transform = own
"""


def test_minimal_scenario():
    scenario = parse_scenario(MINIMAL)
    assert scenario.polity == Polity(2, 1)
    assert isinstance(scenario.feasible, BoxGrid)
    assert count_feasible(scenario.feasible, scenario.polity) == 9
    assert scenario.transforms == {1: OwnBundle(), 2: OwnBundle()}
    assert scenario.swf is None
    assert scenario.moves == ()


def test_shared_transform_applies_to_every_agent():
    scenario = parse_scenario(
        "agents = 3\ncommodities = 1\nfeasible.kind = box_grid\n"
        "feasible.levels = 1,2\ntransform = relative_mean\n"
    )
    assert scenario.transforms == {a: RelativeToMean() for a in (1, 2, 3)}


def test_transform_defaults_to_own_when_absent():
    scenario = parse_scenario(
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
    )
    assert scenario.transforms == {1: OwnBundle(), 2: OwnBundle()}


def test_per_agent_transform_overrides_shared():
    scenario = parse_scenario(
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\n"
        "feasible.levels = 1,2\ntransform = relative_mean\ntransform.2 = own\n"
    )
    assert scenario.transforms == {1: RelativeToMean(), 2: OwnBundle()}


def test_transform_agent_out_of_range():
    with pytest.raises(ValidationError, match="transform.3"):
        parse_scenario(
            "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\n"
            "feasible.levels = 0,1\ntransform.3 = own\n"
        )


def test_neighborhood_ids_checked_against_polity():
    with pytest.raises(ValidationError, match="names agent"):
        parse_scenario(
            "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\n"
            "feasible.levels = 1,2\ntransform.1 = relative_nbhd(5)\n"
        )


def test_swf_weights_all_zero():
    with pytest.raises(ValidationError, match="all zero"):
        parse_scenario(MINIMAL + "swf = weighted_sum(0,0)\n")


def test_swf_weight_count_checked():
    with pytest.raises(ValidationError, match="2 agents"):
        parse_scenario(MINIMAL + "swf = weighted_sum(1,2,3)\n")


@pytest.mark.parametrize(
    "value, message",
    [
        ("product", "swf: unknown welfare functional 'product'"),
        ("weighted_sum(1,,2)", "swf: empty entry in weight list: '1,,2'"),
        ("weighted_sum(0,0)", "swf: weighted_sum weights are all zero"),
        ("weighted_sum(1,2,3)", "swf: 3 weights for 2 agents"),
    ],
)
def test_swf_errors_name_the_key(value, message, tmp_path, capsys):
    with pytest.raises(ValidationError) as caught:
        parse_scenario(MINIMAL + f"swf = {value}\n")
    assert str(caught.value) == message
    assert caught.value.key == "swf"
    path = tmp_path / "bad_swf.scn"
    path.write_text(MINIMAL + f"swf = {value}\n")
    assert main(["welfare", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# The exact error of each key-level check in the scenario reader: the text,
# the key the error names, and str(error), which the CLI prints after
# "error: ".  One case a check, then inputs that only Fraction's or int's
# wider grammar would read; cases that hold two faults pin which check runs
# first.  The swf checks and the transform.N duplicates are pinned by their
# own tests, and literal faults by _MALFORMED.  CI runs every case through
# the installed script and reads this list with ast, so it stays one literal.
KEY_ERRORS = [
    # lines of the file
    ("agents = 2\nagents = 3\n", "agents", "agents: duplicate key"),
    ("agents = 2\ncolour = blue\n", "colour", "colour: unknown key"),
    ("agents =\ncommodities = 1\n", "agents", "agents: empty value"),
    # the counts
    ("commodities = 1\n", "agents", "agents: missing required key"),
    ("agents = two\n", "agents", "agents: expected an integer, got 'two'"),
    ("agents = 0\n", "agents", "agents: must be at least 1, got 0"),
    ("agents = -3\n", "agents", "agents: must be at least 1, got -3"),
    ("agents = 2\n", "commodities", "commodities: missing required key"),
    (
        "agents = 2\ncommodities = 1.5\n",
        "commodities",
        "commodities: expected an integer, got '1.5'",
    ),
    ("agents = 2\ncommodities = 0\n", "commodities", "commodities: must be at least 1, got 0"),
    # the kind of feasible set and the keys it takes
    ("agents = 2\ncommodities = 1\n", "feasible.kind", "feasible.kind: missing required key"),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = sphere\n",
        "feasible.kind",
        "feasible.kind: unknown kind 'sphere'; expected box_grid, "
        "fixed_total_lattice, or explicit_list",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = fixed_total_lattice\n"
        "feasible.total = 2\nfeasible.levels = 0,1\n",
        "feasible.levels",
        "feasible.levels: not valid for kind fixed_total_lattice",
    ),
    # box_grid
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\n",
        "feasible.levels",
        "feasible.levels: missing required key",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,,1\n",
        "feasible.levels",
        "feasible.levels: empty level entry in '0,,1'",
    ),
    (
        "agents = 2\ncommodities = 2\nfeasible.kind = box_grid\nfeasible.levels = 0,1; 2,\n",
        "feasible.levels",
        "feasible.levels: empty level entry in '2,'",
    ),
    (
        "agents = 2\ncommodities = 2\nfeasible.kind = box_grid\nfeasible.levels = x; 2,\n",
        "feasible.levels",
        "feasible.levels: cannot parse quantity 'x': Invalid literal for Fraction: 'x'",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,-1/2\n",
        "feasible.levels",
        "feasible.levels: quantity must be non-negative, got -1/2",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 1/0\n",
        "feasible.levels",
        "feasible.levels: cannot parse quantity '1/0': Fraction(1, 0)",
    ),
    (
        "agents = 2\ncommodities = 3\nfeasible.kind = box_grid\nfeasible.levels = 0; 1\n",
        "feasible.levels",
        "feasible.levels: 2 level groups for 3 commodities",
    ),
    # fixed_total_lattice
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = fixed_total_lattice\n",
        "feasible.total",
        "feasible.total: missing required key",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = fixed_total_lattice\n"
        "feasible.total = x,\n",
        "feasible.total",
        "feasible.total: empty total entry",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = fixed_total_lattice\n"
        "feasible.total = x\n",
        "feasible.total",
        "feasible.total: cannot parse quantity 'x': Invalid literal for Fraction: 'x'",
    ),
    (
        "agents = 2\ncommodities = 3\nfeasible.kind = fixed_total_lattice\n"
        "feasible.total = 1,2\n",
        "feasible.total",
        "feasible.total: 2 totals for 3 commodities",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = fixed_total_lattice\n"
        "feasible.total = 2\nfeasible.step = x\n",
        "feasible.step",
        "feasible.step: cannot parse quantity 'x': Invalid literal for Fraction: 'x'",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = fixed_total_lattice\n"
        "feasible.total = 2\nfeasible.step = 0\n",
        "feasible.step",
        "feasible.step: lattice step must be strictly positive",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = fixed_total_lattice\n"
        "feasible.total = 3\nfeasible.step = 2\n",
        "feasible.step",
        "feasible.step: step 2 does not divide total 3",
    ),
    # an absent step is the default step 1, and its fault is named as the key's
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = fixed_total_lattice\n"
        "feasible.total = 1/2\n",
        "feasible.step",
        "feasible.step: step 1 does not divide total 1/2",
    ),
    # explicit_list
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = explicit_list\n",
        "feasible.list",
        "feasible.list: missing required key",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = explicit_list\n"
        "feasible.list = (0,1);;(1,0)\n",
        "feasible.list",
        "feasible.list: empty state entry",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = explicit_list\n"
        "feasible.list = (0,1,2)\n",
        "feasible.list",
        "feasible.list: allocation lists 3 agents, scenario declares 2",
    ),
    # transforms
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "transform = foo\n",
        "transform",
        "transform: unknown transform 'foo'",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "transform.2 = weighted_own(1,,2)\n",
        "transform.2",
        "transform.2: empty entry in weight list: '1,,2'",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "transform = relative_nbhd(0)\n",
        "transform",
        "transform: neighbor id must be a positive integer, got '0'",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "transform = relative_nbhd(3)\n",
        "transform",
        "transform: neighborhood names agent(s) [3] beyond the 2-agent polity",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "transform.1 = relative_nbhd(2,5,4)\n",
        "transform.1",
        "transform.1: neighborhood names agent(s) [4, 5] beyond the 2-agent polity",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "transform.3 = foo\n",
        "transform.3",
        "transform.3: agent 3 not in 1..2",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "transform.0 = own\n",
        "transform.0",
        "transform.0: agent 0 not in 1..2",
    ),
    # each form of the transform and welfare grammars that it refuses
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "transform = own()\n",
        "transform",
        "transform: own takes no arguments",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "transform = own(\n",
        "transform",
        "transform: cannot parse transform 'own('",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "transform.2 = weighted_own\n",
        "transform.2",
        "transform.2: weighted_own requires a weight list",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "transform = weighted_own(0)\n",
        "transform",
        "transform: aggregation weights must be strictly positive",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "transform = relative_mean(1,)\n",
        "transform",
        "transform: empty entry in weight list: '1,'",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "transform = relative_nbhd\n",
        "transform",
        "transform: relative_nbhd requires a neighbor list",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "transform.1 = relative_nbhd(;1)\n",
        "transform.1",
        "transform.1: neighbor id must be a positive integer, got ''",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "transform = relative_nbhd(1;)\n",
        "transform",
        "transform: empty entry in weight list: ''",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "swf = sum(1)\n",
        "swf",
        "swf: sum takes no arguments",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "swf = maximin()\n",
        "swf",
        "swf: maximin takes no arguments",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "swf = weighted_sum\n",
        "swf",
        "swf: weighted_sum requires a weight list",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "swf = weighted_sum(1,,2)\n",
        "swf",
        "swf: empty entry in weight list: '1,,2'",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "swf = weighted_sum(0,0)\n",
        "swf",
        "swf: weighted_sum weights are all zero",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "swf = Sum\n",
        "swf",
        "swf: cannot parse welfare functional 'Sum'",
    ),
    # the shared transform is read before any agent's
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "transform.3 = own\ntransform = foo\n",
        "transform",
        "transform: unknown transform 'foo'",
    ),
    # moves
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "moves = (0,0) -> (1,1);\n",
        "moves",
        "moves: empty move entry",
    ),
    # discover
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "discover.beneficiary = x\n",
        "discover.beneficiary",
        "discover.beneficiary: expected an integer, got 'x'",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "discover.beneficiary = 0\n",
        "discover.beneficiary",
        "discover.beneficiary: must be at least 1, got 0",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "discover.beneficiary = 3\n",
        "discover.beneficiary",
        "discover.beneficiary: agent 3 not in 1..2",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "discover.steps = 2.5\n",
        "discover.steps",
        "discover.steps: expected an integer, got '2.5'",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "discover.steps = 0\n",
        "discover.steps",
        "discover.steps: must be at least 1, got 0",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "discover.increment = x\n",
        "discover.increment",
        "discover.increment: cannot parse quantity 'x': Invalid literal for Fraction: 'x'",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "discover.increment = -1\n",
        "discover.increment",
        "discover.increment: quantity must be non-negative, got -1",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "discover.increment = 0\n",
        "discover.increment",
        "discover.increment: must be strictly positive",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "discover.lattice_step = 1/0\n",
        "discover.lattice_step",
        "discover.lattice_step: cannot parse quantity '1/0': Fraction(1, 0)",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "discover.lattice_step = 0.0\n",
        "discover.lattice_step",
        "discover.lattice_step: must be strictly positive",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "discover.increment = 1/2\n",
        "discover.increment",
        "discover.increment: increment 1/2 is not a multiple of lattice step 1",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "discover.initial = (1/2,1)\ndiscover.lattice_step = 1/3\n",
        "discover.initial",
        "discover.initial: quantity 1/2 is not a multiple of lattice step 1/3",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "discover.initial = (1,1,1)\n",
        "discover.initial",
        "discover.initial: allocation lists 3 agents, scenario declares 2",
    ),
    # the increment is checked against the step before the initial state
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "discover.initial = (1/2,1)\ndiscover.increment = 1/2\n",
        "discover.increment",
        "discover.increment: increment 1/2 is not a multiple of lattice step 1",
    ),
    # scan
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "scan.cap = many\n",
        "scan.cap",
        "scan.cap: expected an integer, got 'many'",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "scan.cap = 0\n",
        "scan.cap",
        "scan.cap: must be at least 1, got 0",
    ),
    # quantities and counts are ASCII digits (and '.' and '/' for a quantity)
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\n"
        "feasible.levels = 0,1e1\n",
        "feasible.levels",
        "feasible.levels: cannot parse quantity '1e1': Invalid literal for Fraction: '1e1'",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\n"
        "feasible.levels = 1_0\n",
        "feasible.levels",
        "feasible.levels: cannot parse quantity '1_0': Invalid literal for Fraction: '1_0'",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\n"
        "feasible.levels = +3\n",
        "feasible.levels",
        "feasible.levels: cannot parse quantity '+3': Invalid literal for Fraction: '+3'",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\n"
        "feasible.levels = \u0663\n",
        "feasible.levels",
        "feasible.levels: cannot parse quantity '\u0663': Invalid literal for Fraction: '\u0663'",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\n"
        "feasible.levels = -0\n",
        "feasible.levels",
        "feasible.levels: cannot parse quantity '-0': Invalid literal for Fraction: '-0'",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = fixed_total_lattice\nfeasible.total = 2\n"
        "feasible.step = 1 / 2\n",
        "feasible.step",
        "feasible.step: cannot parse quantity '1 / 2': Invalid literal for Fraction: '1 / 2'",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "discover.increment = 1E0\n",
        "discover.increment",
        "discover.increment: cannot parse quantity '1E0': Invalid literal for Fraction: '1E0'",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "transform = weighted_own(1e1)\n",
        "transform",
        "transform: cannot parse quantity '1e1': Invalid literal for Fraction: '1e1'",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "swf = weighted_sum(1_0,1)\n",
        "swf",
        "swf: cannot parse quantity '1_0': Invalid literal for Fraction: '1_0'",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "transform = relative_nbhd(\u00b2)\n",
        "transform",
        "transform: neighbor id must be a positive integer, got '\u00b2'",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "transform.1 = relative_nbhd(\u0663)\n",
        "transform.1",
        "transform.1: neighbor id must be a positive integer, got '\u0663'",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "discover.steps = +2\n",
        "discover.steps",
        "discover.steps: expected an integer, got '+2'",
    ),
    (
        "agents = 2\ncommodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
        "scan.cap = 1_000\n",
        "scan.cap",
        "scan.cap: expected an integer, got '1_000'",
    ),
    ("agents = 1_0\n", "agents", "agents: expected an integer, got '1_0'"),
    ("agents = +3\n", "agents", "agents: expected an integer, got '+3'"),
    (
        "agents = 2\ncommodities = \u0663\n",
        "commodities",
        "commodities: expected an integer, got '\u0663'",
    ),
    # keys are read in a fixed order, whatever their order in the file
    (
        "scan.cap = 0\ndiscover.steps = 0\nfeasible.kind = sphere\n"
        "commodities = 0\nagents = 0\n",
        "agents",
        "agents: must be at least 1, got 0",
    ),
    (
        "scan.cap = 0\ndiscover.steps = 0\nswf = product\nagents = 2\ncommodities = 1\n"
        "feasible.kind = box_grid\nfeasible.levels = 0,1\ntransform.1 = foo\n",
        "transform.1",
        "transform.1: unknown transform 'foo'",
    ),
    (
        "scan.cap = 0\ndiscover.steps = 0\nswf = product\nagents = 2\ncommodities = 1\n"
        "feasible.kind = box_grid\nfeasible.levels = 0,1\n",
        "swf",
        "swf: unknown welfare functional 'product'",
    ),
    (
        "scan.cap = 0\ndiscover.steps = 0\nmoves = (0,0) -> (1,1);\nagents = 2\n"
        "commodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n",
        "moves",
        "moves: empty move entry",
    ),
    (
        "scan.cap = 0\ndiscover.steps = 0\ndiscover.beneficiary = 3\nagents = 2\n"
        "commodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n",
        "discover.beneficiary",
        "discover.beneficiary: agent 3 not in 1..2",
    ),
]


@pytest.mark.parametrize("text, key, message", KEY_ERRORS, ids=[m for *_, m in KEY_ERRORS])
def test_key_errors_name_the_key(text, key, message, tmp_path, capsys):
    with pytest.raises(ValidationError) as caught:
        parse_scenario(text)
    assert (str(caught.value), caught.value.key) == (message, key)
    path = tmp_path / "bad.scn"
    path.write_text(text, encoding="utf-8")
    assert main(["frontier", "--scenario", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")



# Values for generated scenario texts: for each key, values that some
# scenario accepts, then values that it refuses or that no scenario accepts.
_POOLS = {
    "agents": (["1", "2", "3"], ["0", "-1", "x", "2.5", "1_0", "+2"]),
    "commodities": (["1", "2"], ["0", "x", "\u0663"]),
    "feasible.kind": (["box_grid", "fixed_total_lattice", "explicit_list"], ["sphere"]),
    "feasible.levels": (["0,1", "0, 1/2, 2", "0,1; 0.5,2"], ["0,,1", "x", "-1", "1/0", "1e1", "0;"]),
    "feasible.total": (["2", "3/2", "2,4"], ["x,", "-1", "1E0"]),
    "feasible.step": (["1", "1/2"], ["0", "x", "1_0"]),
    "feasible.list": (
        ["(0,1);(1,0)", "((0,1),(1,0)); ((1,1),(0,0))", "(1/2,1,0)"],
        ["(0,1);;(1,0)", "(x,1)", "(0,1e1)"],
    ),
    "transform": (
        ["own", "relative_mean", "relative_nbhd(1,2)", "weighted_own(1,2)"],
        ["foo", "own(1)", "relative_nbhd(0)", "relative_nbhd(\u00b2)", "weighted_own(+1)"],
    ),
    "swf": (["maximin", "sum", "weighted_sum(1,2)"], ["product", "weighted_sum(0,0)", "sum(1)"]),
    "moves": (
        ["(0,0) -> (1,1)", "((1,0),(0,1)) -> ((1,1),(1,1)); (1,1)->(2,1)"],
        ["(0,0) -> (1,1);", "(0,1e1) -> (1,1)", "(0,0), (1,1)"],
    ),
    "discover.initial": (["(1,1)", "(1/2,1)", "((1,1),(0,1))"], ["(x,1)", "(1,1"]),
    "discover.beneficiary": (["1", "2"], ["0", "x", "9"]),
    "discover.steps": (["1", "10"], ["0", "+3"]),
    "discover.increment": (["1", "1/2"], ["0", "-1", "1e0"]),
    "discover.lattice_step": (["1", "1/4"], ["0", "1/0"]),
    "scan.cap": (["100"], ["0", "1_000"]),
}
_POOLS.update({f"transform.{n}": _POOLS["transform"] for n in (1, 3)})
_NEEDED = {"agents", "commodities", "feasible.kind", "feasible.levels", "feasible.total"}


@st.composite
def _scenario_texts(draw):
    """A scenario text in any line order, each key absent, valid, or given one
    bad value; the keys every scenario of its kind needs are seldom absent."""
    lines = []
    for key, (valid, bad) in _POOLS.items():
        if draw(st.integers(0, 9)) < (9 if key in _NEEDED else 5):
            pool = bad if draw(st.integers(0, 5)) == 0 else valid
            lines.append(f"{key} = {draw(st.sampled_from(pool))}\n")
    return "".join(draw(st.permutations(lines)))


@given(_scenario_texts())
def test_every_validation_error_names_its_key(text):
    try:
        parse_scenario(text)
    except ParseError:
        pass
    except ValidationError as exc:
        assert exc.key is not None
        assert str(exc).startswith(f"{exc.key}: ")


@given(st.text("0123456789./-+eE_ \t\u0663", max_size=6))
def test_a_quantity_reads_alike_in_a_key_and_in_a_literal(token):
    def read(lines, value):
        header = "agents = 1\ncommodities = 1\nfeasible.kind = box_grid\n"
        try:
            return value(parse_scenario(header + lines))
        except (ParseError, ValidationError):
            return None

    in_key = read(f"feasible.levels = {token}\n", lambda s: s.feasible.levels[0])
    in_literal = read(
        f"feasible.levels = 0\nmoves = ({token}) -> (0)\n", lambda s: s.moves[0].before.flat()
    )
    assert in_key == in_literal

def test_swf_parses():
    scenario = parse_scenario(MINIMAL + "swf = maximin\n")
    assert scenario.swf.combiner == Maximin()
    scenario = parse_scenario(MINIMAL + "swf = weighted_sum(0,1)\n")
    assert scenario.swf.combiner == WeightedSum((Fraction(0), Fraction(1)))


def test_moves_parse():
    scenario = parse_scenario(MINIMAL + "moves = (0,0) -> (0,1); (1,1) -> (2,1)\n")
    assert len(scenario.moves) == 2
    assert scenario.moves[0].before.flat() == (Fraction(0), Fraction(0))
    assert scenario.moves[1].after.flat() == (Fraction(2), Fraction(1))


# Every move of four data scenarios, as the moves were parsed into
# ``Allocation``s before they were kept as int holdings: one blank-separated
# group per agent, its quantities separated by commas.
_PARSED_MOVES = {
    "check_move_literals": [
        "1/2 1 3/2 -> 1 2 3",
        "1 1 1 -> 1 1/2 1",
        "1 1 1 -> 2 2 2",
        "1 1 1 -> 2 1 1",
        "1 3/2 1/2 -> 1 3/2 1/2",
        "1 0 1 -> 1 2 1",
        "3/2 3/2 3/2 -> 3 3 3",
        "1 1 1 -> 1 1 3/2",
    ],
    "check_move_mixed": [
        "1/2 1 3/2 -> 1 2 3",
        "1 1 1 -> 1 1/2 1",
        "1/2 1 3/2 -> 1/2 1 3/2",
        "2 2 2 -> 3/2 2 1",
        "1 1 1 -> 2 1 1",
        "1 1 1 -> 1 1 3/2",
        "1/2 0 1/2 -> 1/2 1/2 1/2",
        "3/2 1 1/2 -> 3/2 3/2 1/2",
        "1 1 1 -> 2 2 2",
    ],
    "check_move_weighted": [
        "1,1 1,1 -> 2,0 1,1",
        "1,1 2,0 -> 1,1 1,1",
        "1/2,3/2 1,1 -> 1,3/2 3,1/2",
        "1,1 1,1 -> 2,1 3,0",
        "1,1 1,1 -> 1,1 1,1",
        "1,1 1,1 -> 3/2,1 1,3/2",
        "2,2 2,2 -> 3,1 3,1",
    ],
    "own_box": ["1 1 -> 2 1", "1 1 -> 2 0", "1 1 -> 1 1"],
}


def _pinned_move(text):
    before, after = (
        alloc(*[tuple(map(Fraction, group.split(","))) for group in end.split()])
        for end in text.split("->")
    )
    return Move(before, after)


@pytest.mark.parametrize("name", sorted(_PARSED_MOVES))
def test_moves_view_equals_the_parsed_moves(name):
    scenario = load_scenario(DATA / f"{name}.scn")
    assert scenario.moves == tuple(map(_pinned_move, _PARSED_MOVES[name]))
    assert scenario.moves is scenario.moves  # made once, on first use


def test_moves_are_int_holdings_on_one_scenario_scale():
    scenario = load_scenario(DATA / "check_move_literals.scn")
    assert scenario.move_scale == 2
    assert scenario.move_holdings[0] == (((1,), (2,), (3,)), ((2,), (4,), (6,)))
    # no single move's denominators make the scale: 1/2, 2/3 and 5/7 do
    scenario = parse_scenario(
        MINIMAL + "moves = (1/2,1) -> (1,1); (2/3,1) -> (1,2/3); (05/7,1.0) -> (5/7,2)\n"
    )
    assert scenario.move_scale == 42
    assert scenario.move_holdings == (
        (((21,), (42,)), ((42,), (42,))),
        (((28,), (42,)), ((42,), (28,))),
        (((30,), (42,)), ((30,), (84,))),
    )
    assert parse_scenario(MINIMAL).move_holdings == ()


def test_a_rejected_literal_the_cursor_accepts_is_an_internal_fault(monkeypatch):
    # the cursor only reports faults: a pattern that matches nothing sends a
    # well-formed literal to it, and finding no fault there is a bug
    never = re.compile(r"(?!)")
    monkeypatch.setattr(scenario_module._Literals, "pattern", property(lambda self: never))
    message = r"rejects '\(0,1\) *' but the cursor finds no fault"
    with pytest.raises(InternalInvariant, match=message):
        parse_scenario(MINIMAL + "moves = (0,1) -> (1,1)\n")


def test_multi_commodity_moves_and_levels():
    scenario = parse_scenario(
        "agents = 2\ncommodities = 2\nfeasible.kind = box_grid\n"
        "feasible.levels = 0,1; 0,2\n"
        "moves = ((1,0),(0,2)) -> ((1,2),(0,2))\n"
    )
    assert scenario.feasible.levels == (
        (Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(2)),
    )
    assert scenario.moves[0].before.bundle_for(2).quantities == (
        Fraction(0),
        Fraction(2),
    )


def test_single_level_group_replicated_across_commodities():
    scenario = parse_scenario(
        "agents = 2\ncommodities = 3\nfeasible.kind = box_grid\nfeasible.levels = 0,1\n"
    )
    assert len(scenario.feasible.levels) == 3


def test_lattice_scenario():
    scenario = parse_scenario(
        "agents = 2\ncommodities = 1\nfeasible.kind = fixed_total_lattice\n"
        "feasible.total = 2\nfeasible.step = 1\n"
    )
    assert scenario.feasible == FixedTotalLattice((Fraction(2),), Fraction(1))


def test_explicit_list_scenario_canonicalizes():
    scenario = parse_scenario(
        "agents = 2\ncommodities = 1\nfeasible.kind = explicit_list\n"
        "feasible.list = (2,0); (0,2); (2,0)\n"
    )
    assert isinstance(scenario.feasible, ExplicitList)
    assert [s.flat() for s in scenario.feasible.states] == [
        (Fraction(0), Fraction(2)),
        (Fraction(2), Fraction(0)),
    ]


def test_feasible_keys_must_match_kind():
    with pytest.raises(ValidationError, match="feasible.levels"):
        parse_scenario(
            "agents = 2\ncommodities = 1\nfeasible.kind = fixed_total_lattice\n"
            "feasible.total = 2\nfeasible.levels = 0,1\n"
        )


def test_unknown_kind():
    with pytest.raises(ValidationError, match="feasible.kind"):
        parse_scenario(
            "agents = 2\ncommodities = 1\nfeasible.kind = sphere\nfeasible.levels = 0\n"
        )


def test_missing_required_keys():
    with pytest.raises(ValidationError, match="agents"):
        parse_scenario("commodities = 1\nfeasible.kind = box_grid\nfeasible.levels = 0\n")
    with pytest.raises(ValidationError, match="feasible.kind"):
        parse_scenario("agents = 2\ncommodities = 1\n")


def test_duplicate_and_unknown_keys():
    with pytest.raises(ValidationError, match="duplicate"):
        parse_scenario("agents = 2\nagents = 3\n")
    with pytest.raises(ValidationError, match="colour"):
        parse_scenario(MINIMAL + "colour = blue\n")


def test_agent_transform_keys_naming_one_agent_are_duplicates(tmp_path, capsys):
    # transform.1 and transform.01 are different strings for one agent; the
    # later one is refused rather than silently winning
    base = MINIMAL.replace("transform = own\n", "")
    for first, second in [("1", "01"), ("02", "2"), ("1", "001")]:
        text = base + f"transform.{first} = own\ntransform.{second} = relative_mean\n"
        with pytest.raises(ValidationError) as exc:
            parse_scenario(text)
        assert str(exc.value) == f"transform.{second}: duplicate key"
        assert exc.value.key == f"transform.{second}"
    path = tmp_path / "twice.scn"
    path.write_text(base + "transform.1 = own\ntransform.01 = relative_mean\n")
    assert main(["frontier", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: transform.01: duplicate key\n"
    # an agent out of range is still named as such, even when repeated
    with pytest.raises(ValidationError, match=r"^transform\.00: agent 0 not in 1\.\.2$"):
        parse_scenario(base + "transform.00 = own\ntransform.0 = own\n")


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse_scenario("agents = 2\ncommodities = 1\nthis line has no equals\n")
    assert exc.value.line == 3
    assert "line 3" in str(exc.value)


def test_parse_error_names_a_missing_key():
    with pytest.raises(ParseError) as exc:
        parse_scenario("agents = 2\n= 3\n")
    assert (exc.value.line, exc.value.column) == (2, 1)
    assert str(exc.value) == "line 2, column 1: missing key before '='"


def test_parse_error_carries_column_for_bad_literal():
    bad = MINIMAL + "moves = (0,x) -> (1,1)\n"
    with pytest.raises(ParseError) as exc:
        parse_scenario(bad)
    assert exc.value.line == 7
    # the offending character sits at 1-based column 12
    assert exc.value.column == 12


def test_move_without_arrow():
    with pytest.raises(ParseError, match="FROM -> TO"):
        parse_scenario(MINIMAL + "moves = (0,0), (1,1)\n")


def test_allocation_shape_validation():
    with pytest.raises(ValidationError, match="2 agents|declares 2"):
        parse_scenario(MINIMAL + "moves = (0,0,0) -> (1,1,1)\n")
    with pytest.raises(ValidationError, match="1 commodity|declares 1"):
        parse_scenario(MINIMAL + "moves = ((0,1),(0,1)) -> ((1,1),(1,1))\n")


def test_discover_keys():
    scenario = parse_scenario(
        MINIMAL
        + "discover.initial = (1,1)\ndiscover.beneficiary = 1\n"
        + "discover.steps = 10\ndiscover.increment = 1\n"
    )
    assert (scenario.initial_scale, scenario.initial_holdings) == (1, ((1,), (1,)))
    assert scenario.discover_initial == alloc(1, 1)
    assert scenario.discover_initial is scenario.discover_initial  # made once
    fractional = parse_scenario(
        MINIMAL + "discover.initial = (1/2, 0.75)\ndiscover.lattice_step = 1/4\n"
    )
    assert (fractional.initial_scale, fractional.initial_holdings) == (4, ((2,), (3,)))
    assert fractional.discover_initial == alloc("1/2", "3/4")
    assert parse_scenario(MINIMAL).discover_initial is None
    assert scenario.discover_beneficiary == 1
    assert scenario.discover_steps == 10
    assert scenario.discover_increment == Fraction(1)
    assert scenario.discover_lattice_step == Fraction(1)


def test_discover_validation():
    with pytest.raises(ValidationError, match="discover.steps"):
        parse_scenario(MINIMAL + "discover.steps = 0\n")
    with pytest.raises(ValidationError, match="discover.beneficiary"):
        parse_scenario(MINIMAL + "discover.beneficiary = 9\n")
    with pytest.raises(ValidationError, match="multiple"):
        parse_scenario(
            MINIMAL + "discover.increment = 1/2\ndiscover.lattice_step = 1\n"
        )
    with pytest.raises(ValidationError, match="multiple"):
        parse_scenario(
            MINIMAL + "discover.initial = (1/2,1)\ndiscover.lattice_step = 1\n"
        )


def test_scan_cap_key():
    scenario = parse_scenario(MINIMAL + "scan.cap = 500\n")
    assert scenario.scan_cap == 500
    with pytest.raises(ValidationError, match="scan.cap"):
        parse_scenario(MINIMAL + "scan.cap = 0\n")


def test_empty_value_rejected():
    with pytest.raises(ValidationError, match="empty value"):
        parse_scenario("agents =\n")


def test_comments_and_blank_lines_ignored():
    scenario = parse_scenario(
        "\n# header\nagents = 2   # trailing comment\n\ncommodities = 1\n"
        "feasible.kind = box_grid\nfeasible.levels = 0,1\n"
    )
    assert scenario.n_agents == 2


def test_load_scenario_sets_digest(tmp_path):
    path = tmp_path / "s.scn"
    path.write_text(MINIMAL)
    scenario = load_scenario(str(path))
    assert len(scenario.digest) == 12
    assert all(c in "0123456789abcdef" for c in scenario.digest)


def test_load_scenario_rejects_non_utf8(tmp_path):
    path = tmp_path / "bad.scn"
    path.write_bytes(b"agents = 2\n\xff\xfe\n")
    with pytest.raises(ParseError) as exc:
        load_scenario(str(path))
    assert (exc.value.line, exc.value.column) == (2, 1)
    assert "not valid UTF-8" in str(exc.value)


@pytest.mark.parametrize(
    "data,line,column",
    [
        (b"agents = 2\ncommodities = \xff\n", 2, 15),
        (b"agents = 2\r\ncommodities = 1\r\n\r\nmoves = (\xc3\xa9,\xc3)", 4, 12),
        # a byte order mark is no column of the first line
        (b"\xef\xbb\xbfag\xffents = 2\n", 1, 3),
    ],
)
def test_non_utf8_error_names_the_first_bad_byte(tmp_path, data, line, column):
    path = tmp_path / "bad.scn"
    path.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        load_scenario(str(path))
    assert (exc.value.line, exc.value.column) == (line, column)


def test_load_scenario_accepts_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.scn"
    data = b"\xef\xbb\xbf" + MINIMAL.encode()
    path.write_bytes(data)
    scenario = load_scenario(str(path))
    # the digest is of the raw bytes, mark included
    digest = hashlib.sha256(data).hexdigest()[:12]
    assert scenario == parse_scenario(MINIMAL, digest=digest)


# --- Allocation literals ----------------------------------------------------

TWO_GOODS = """\
agents = 2
commodities = 2
feasible.kind = box_grid
feasible.levels = 0,1
"""

# Malformed literals with the exact error each raises: a ParseError's
# message and 1-based column (the line is the last line of the text), or a
# ValidationError's message.
_MALFORMED = [
    (MINIMAL, "moves = 0,0) -> (1,1)", ParseError, "expected '(', found '0'", 9),
    (MINIMAL, "moves = (0,0 -> (1,1)", ParseError, "expected ')', found 'end of input'", 14),
    (MINIMAL, "moves = (0,0) -> (1,1", ParseError, "expected ')', found 'end of input'", 22),
    (MINIMAL, "moves = (0,x) -> (1,1)", ParseError, "expected a number", 12),
    (MINIMAL, "moves = (0,0) -> (1,y)", ParseError, "expected a number", 21),
    (
        MINIMAL, "moves = (1/0,1) -> (1,1)", ParseError,
        "cannot parse quantity '1/0': Fraction(1, 0)", 10,
    ),
    (
        MINIMAL, "moves = (1.2.3,1) -> (1,1)", ParseError,
        "cannot parse quantity '1.2.3': Invalid literal for Fraction: '1.2.3'", 10,
    ),
    (
        MINIMAL, "moves = (1,1) -> (1/2/3,1)", ParseError,
        "cannot parse quantity '1/2/3': Invalid literal for Fraction: '1/2/3'", 19,
    ),
    (MINIMAL, "moves = () -> (1,1)", ParseError, "expected a number", 10),
    (MINIMAL, "moves = (0,,0) -> (1,1)", ParseError, "expected a number", 12),
    (MINIMAL, "moves = (0,0) -> ", ParseError, "expected '(', found 'end of input'", 17),
    # a group nested in a group
    (MINIMAL, "moves = ((0,(1)),(1)) -> ((1),(1))", ParseError, "expected a number", 13),
    (MINIMAL, "moves = (0,0) x -> (1,1)", ParseError, "unexpected trailing text 'x '", 15),
    (MINIMAL, "moves = (0,0) -> (1,1) junk", ParseError, "unexpected trailing text 'junk'", 24),
    # a group nested in a group of a scalar list
    (MINIMAL, "moves = (0,(1,(2))) -> (1,1)", ParseError, "expected a number", 15),
    (
        MINIMAL, "moves = (0,(1)) -> (1,1)", ValidationError,
        "moves: mixed scalar and grouped entries", None,
    ),
    (
        MINIMAL, "moves = (0,0,0) -> (1,1,1)", ValidationError,
        "moves: allocation lists 3 agents, scenario declares 2", None,
    ),
    (
        MINIMAL, "moves = (0,0) -> (1)", ValidationError,
        "moves: allocation lists 1 agents, scenario declares 2", None,
    ),
    (
        MINIMAL, "moves = ((0,1),(0,1)) -> ((1,1),(1,1))", ValidationError,
        "moves: bundle lists 2 commodities, scenario declares 1", None,
    ),
    (
        TWO_GOODS, "moves = (0,0) -> (1,1)", ValidationError,
        "moves: scalar entries imply 1 commodity, scenario declares 2", None,
    ),
    (
        TWO_GOODS, "moves = ((0,1),(0)) -> ((1,1),(1,1))", ValidationError,
        "moves: bundle lists 1 commodities, scenario declares 2", None,
    ),
    # blanks and tabs before the fault count one column each
    (MINIMAL, "moves = (\t0, \tx) -> (1,1)", ParseError, "expected a number", 15),
    (MINIMAL, "moves = ( 0 ,\t0 )\t-> (1, 1 ) z", ParseError, "unexpected trailing text 'z'", 30),
    (
        MINIMAL, "moves = (0,0) -> (1,1);\t(1, 1) -> ( 2 ,\t1/0 )", ParseError,
        "cannot parse quantity '1/0': Fraction(1, 0)", 41,
    ),
    (
        TWO_GOODS, "moves = ( (0, 1) ,(1,1)) -> ((1,1), ( 1 ; 1))", ParseError,
        "expected ')', found 'end of input'", 41,
    ),
    (MINIMAL, "discover.initial = (1,\tx)", ParseError, "expected a number", 24),
]


@pytest.mark.parametrize("header,line,error,message,column", _MALFORMED)
def test_malformed_literal_errors(header, line, error, message, column):
    text = header + line + "\n"
    with pytest.raises(error) as exc:
        parse_scenario(text)
    if error is ValidationError:
        assert str(exc.value) == message
        return
    line_no = text.count("\n")
    assert (exc.value.line, exc.value.column) == (line_no, column)
    assert str(exc.value) == f"line {line_no}, column {column}: {message}"


@pytest.mark.parametrize("path", sorted(DATA.glob("*.scn")), ids=lambda p: p.stem)
def test_well_formed_literals_never_reach_the_cursor(monkeypatch, path):
    # the character cursor only reports errors; a well-formed literal is
    # read by the one literal pattern
    def refuse(self):
        raise AssertionError(f"cursor reached for {self.text!r}")

    monkeypatch.setattr(scenario_module._Cursor, "skip_ws", refuse)
    assert load_scenario(str(path))


def test_explicit_list_literal_error_column():
    with pytest.raises(ParseError) as exc:
        parse_scenario(
            "agents = 2\ncommodities = 1\nfeasible.kind = explicit_list\n"
            "feasible.list = (0,1); ( 1 ,\t1/0)\n"
        )
    assert (exc.value.line, exc.value.column) == (4, 30)


_BLANK = st.sampled_from(["", " ", "\t", "  ", " \t"])
_QUANTITY = st.fractions(min_value=0, max_value=30, max_denominator=20)


def _decimal(q: Fraction) -> str | None:
    """``q`` as an exact decimal with at least one fractional digit, if it has one."""
    for digits in range(1, 6):
        scaled = q * 10**digits
        if scaled.denominator == 1:
            whole, frac = divmod(scaled.numerator, 10**digits)
            return f"{whole}.{frac:0{digits}d}"
    return None


@st.composite
def _literals(draw):
    """A random exact allocation and one way to write it: every quantity as a
    ratio, a decimal or an integer with leading zeros, scalar or grouped,
    with blanks and tabs wherever the grammar allows them."""
    agents = draw(st.integers(1, 3))
    commodities = draw(st.integers(1, 2))
    flat = [draw(_QUANTITY) for _ in range(agents * commodities)]

    def number(q):
        k = draw(st.integers(1, 3))
        forms = [f"{q.numerator * k}/{q.denominator * k}"]
        if q.denominator == 1:
            forms.append("0" * draw(st.integers(0, 2)) + str(q.numerator))
        decimal = _decimal(q)
        if decimal is not None:
            forms += [decimal, decimal + "0" * draw(st.integers(1, 2))]
        return draw(st.sampled_from(forms))

    def listed(items):
        return "(" + ",".join(draw(_BLANK) + i + draw(_BLANK) for i in items) + ")"

    if commodities == 1 and draw(st.booleans()):
        items = [number(q) for q in flat]
    else:
        items = [
            listed([number(q) for q in flat[i : i + commodities]])
            for i in range(0, len(flat), commodities)
        ]
    text = draw(_BLANK) + listed(items) + draw(_BLANK)
    return agents, commodities, tuple(flat), text


def _header(agents, commodities):
    return (
        f"agents = {agents}\ncommodities = {commodities}\n"
        "feasible.kind = box_grid\nfeasible.levels = 0,1\n"
    )


@given(_literals())
def test_literals_round_trip(case):
    agents, commodities, flat, text = case
    scenario = parse_scenario(_header(agents, commodities) + f"moves = {text}->{text}\n")
    (move,) = scenario.moves
    assert move.before.flat() == flat
    assert move.after.flat() == flat
    assert move.before.dimension == commodities


def _literal_outcome(parse):
    """``None`` when ``parse`` accepts the literal, else the error it raises."""
    try:
        parse()
    except ParseError as exc:
        return ParseError, str(exc), exc.line, exc.column
    except ValidationError as exc:
        return ValidationError, str(exc)
    return None


@st.composite
def _mutated_literals(draw):
    """A ``_literals`` text with one to three characters deleted, inserted
    or replaced: ``(agents, commodities, text)``."""
    agents, commodities, _, text = draw(_literals())
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from("(),./0123456789 \tx-;"))
        kind = draw(st.sampled_from(["delete", "insert", "replace"]))
        if kind == "insert":
            text = text[:at] + ch + text[at:]
        else:
            text = text[:at] + (ch if kind == "replace" else "") + text[at + 1 :]
    return agents, commodities, text


@given(_mutated_literals())
def test_cursor_raises_exactly_when_the_pattern_rejects(case):
    # the pattern route hands a literal to the cursor only when it rejects
    # it, and the cursor finds a fault in exactly those literals
    agents, commodities, text = case
    literals = _Literals(agents, commodities)
    with mock.patch.object(scenario_module, "_parse_allocation") as cursor:
        try:
            literals.tokens(text, 5, 9, "moves")
        except InternalInvariant:
            pass
    try:
        _parse_allocation(text, 5, 9, agents, commodities, "moves")
    except (ParseError, ValidationError):
        assert cursor.called
    else:
        assert not cursor.called


@given(_mutated_literals())
def test_mutated_literals_raise_only_scenario_errors(case):
    # the literal parser must give what the character cursor gives: no
    # error, or the same error at the same column
    agents, commodities, text = case
    literals = _Literals(agents, commodities)
    assert _literal_outcome(lambda: literals.tokens(text, 5, 9, "moves")) == _literal_outcome(
        lambda: _parse_allocation(text, 5, 9, agents, commodities, "moves")
    )
    try:
        parse_scenario(_header(agents, commodities) + f"moves = {text} -> {text}\n")
    except (ParseError, ValidationError):
        pass
