"""The error hierarchy: every toolkit error has exactly one exit-code base."""

from opkernel import errors
from opkernel.errors import InputError, NumericalError, OpKernelError


def _descendants(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _descendants(sub)


def test_every_error_derives_from_exactly_one_base():
    bases = {InputError, NumericalError}
    assert set(OpKernelError.__subclasses__()) == bases
    classes = set(_descendants(OpKernelError)) - bases
    assert classes  # the walk reached the concrete classes
    for cls in classes:
        assert sum(issubclass(cls, base) for base in bases) == 1, cls.__name__
    # every class the module defines is in the walk
    defined = {v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, OpKernelError)}
    assert defined == classes | bases | {OpKernelError}
