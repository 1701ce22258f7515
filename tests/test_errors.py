"""Every package error survives a pickle round trip with its type,
message and fields: pickling is part of the public API, for callers that
cache results or send them between their own processes."""

import inspect
import pickle

import numpy as np
import pytest

from smcmix import EmConfig, MixtureModel, errors
from smcmix.em import fit

from conftest import make_component

# error type, constructor arguments, expected message, expected fields
ERRORS = [
    (errors.SmcmixError, ("any failure",), "any failure", {}),
    (errors.InvalidModelError, ("weights must sum to 1",), "weights must sum to 1", {}),
    (errors.DataError, ("empty file",), "empty file", {}),
    (errors.MalformedRow, (7, "expected 4 fields"), "line 7: expected 4 fields", {"line": 7}),
    (errors.NonMonotoneOnset, ("s12", 2),
     "onsets not strictly increasing for subject 's12' replication 2",
     {"subject": "s12", "replication": 2}),
    (errors.UnknownAttribute, ("Zesty", 9),
     "line 9: attribute 'Zesty' not in the supplied label list",
     {"attribute": "Zesty", "line": 9}),
    (errors.NumericalError, ("overflow",), "overflow", {}),
    (errors.DegenerateSample, ("zero variance",), "zero variance", {}),
    (errors.NonConvergence, ("bracket exhausted",), "bracket exhausted", {}),
    (errors.AllComponentsImpossible, (3,),
     "subject 3 has zero likelihood under every mixture component", {"subject": 3}),
    (errors.EmptyComponent, (1,), "mixture component 1 lost all its subjects",
     {"component": 1, "report": None}),
    (errors.EmptyComponent, (0, "partial"), "mixture component 0 lost all its subjects",
     {"component": 0, "report": "partial"}),
]


def test_the_table_covers_every_error_type():
    types = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
             if issubclass(cls, errors.SmcmixError)}
    assert types == {cls for cls, *_ in ERRORS}


@pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL])
@pytest.mark.parametrize("cls, args, message, fields", ERRORS,
                         ids=[f"{row[0].__name__}-{len(row[1])}" for row in ERRORS])
def test_pickle_round_trip(cls, args, message, fields, protocol):
    exc = cls(*args)
    assert str(exc) == message and vars(exc) == fields  # the table reads the type right
    back = pickle.loads(pickle.dumps(exc, protocol=protocol))
    assert type(back) is cls
    assert str(back) == message
    assert back.args == exc.args
    assert vars(back) == fields


def test_an_aborted_fit_keeps_its_partial_report(tiny_panel, two_state_space):
    """``EmptyComponent.report`` is a whole :class:`FitReport`; it comes back
    with the same bytes."""
    init = MixtureModel(
        space=two_state_space, weights=np.array([1.0]),
        components=(make_component([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], [(2.0, 1.0)] * 2),),
    )
    report = fit(tiny_panel, init, EmConfig())
    exc = errors.EmptyComponent(0, report=report)
    back = pickle.loads(pickle.dumps(exc))
    assert str(back) == str(exc) and back.component == 0
    assert pickle.dumps(back.report) == pickle.dumps(report)
    assert back.report.objective_trace == report.objective_trace
