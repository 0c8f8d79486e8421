"""``group_size`` is the one spelling every plan surface accepts.

The plan builders and ``repro.api.run_plan`` take ``group_size`` and
nothing else: the old ``G=`` / ``g=`` / ``group=`` spellings are
unknown keyword arguments, rejected like any other typo.
"""

import warnings

import numpy as np
import pytest

from repro.columnstore import EncodedColumn
from repro.config import HASWELL
from repro.query import in_predicate_plan
from repro.sim.allocator import AddressSpaceAllocator
from repro.sim.engine import ExecutionEngine


@pytest.fixture()
def column():
    return EncodedColumn.from_values(
        AddressSpaceAllocator(), "c", np.arange(2_000)
    )


def encode_group(plan):
    result = plan.execute(ExecutionEngine(HASWELL))
    return result.profile("in_predicate_encode").attrs["group_size"]


class TestPlanBuilderAliases:
    def test_canonical_spelling_stays_silent(self, column):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = in_predicate_plan(
                column, [1, 2], strategy="interleaved", group_size=4
            )
        assert encode_group(plan) == 4

    def test_conflicting_spellings_rejected(self, column):
        for alias in ("G", "g", "group"):
            with pytest.raises(TypeError, match=alias):
                in_predicate_plan(column, [1], group_size=2, **{alias: 3})

    def test_unknown_kwarg_rejected(self, column):
        with pytest.raises(TypeError, match="chunk"):
            in_predicate_plan(column, [1], chunk=7)


class TestApiRunPlanAliases:
    def test_conflict_rejected(self, column):
        from repro.api import run_plan

        with pytest.raises(TypeError, match="group"):
            run_plan(column, [1], group_size=2, group=6)
