"""Temporary wrappers around the program's functions, always undone."""

from __future__ import annotations

import contextlib
import inspect
import sys


class Patches(contextlib.ExitStack):
    """An exit stack that also replaces attributes and puts them back.

    ``wrap(owner, attr, make)`` replaces ``owner.attr`` with
    ``make(original)``.  For a module-level function it replaces every
    binding of that function in the program's loaded modules, so callers
    that did ``from module import name`` see the wrapper too.
    """

    def wrap(self, owner, attr: str, make) -> None:
        if inspect.isclass(owner):
            original = owner.__dict__[attr]
            bindings = [(owner, attr)]
        else:
            original = getattr(owner, attr)
            bindings = [
                (module, name)
                for module_name, module in list(sys.modules.items())
                if module is not None and module_name.split(".")[0] == "repro"
                for name, value in list(vars(module).items())
                if value is original
            ]
        if inspect.isgeneratorfunction(original):
            raise TypeError(
                "%s.%s is a generator function: a call wrapper would time "
                "only its creation" % (owner.__name__, attr)
            )
        wrapper = make(original)
        for target, name in bindings:
            setattr(target, name, wrapper)
            self.callback(setattr, target, name, original)
