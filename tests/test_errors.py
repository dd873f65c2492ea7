import inspect
import pickle

import pytest

from cellpp import errors

# constructor arguments of the classes whose constructors take more
# than a message; every other class is built from a message alone
ARGS = {
    errors.ZoneError: (("lon out of zone",), {"record_id": "s7", "index": 3}),
    errors.ExistenceViolation: (("c", 0.5), {}),
    errors.TruncationError: ((3, 2), {}),
    errors.ConvergenceError: (("no optimum",), {"trace": [(1.0, 2.0)]}),
}

CLASSES = [c for _, c in inspect.getmembers(errors, inspect.isclass)
           if issubclass(c, errors.CellppError)]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_every_error_survives_pickling(cls):
    args, kwargs = ARGS.get(cls, (("something went wrong",), {}))
    exc = cls(*args, **kwargs)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)
