"""Lazily computed attributes that take no lock.

``functools.cached_property`` on Python 3.11 holds one lock per property
across all instances of a class, so threads reading the same property of
different objects (two points analyzed at once) wait for each other. From
Python 3.12 on it takes no lock; ``lazy_attribute`` is that behaviour.
"""

from __future__ import annotations


class lazy_attribute:
    """A method read as an attribute: computed on first read, then stored in
    the instance ``__dict__``, which later reads find first.

    It takes no lock: threads reading it at once on one instance may each
    compute it, and the last store wins, so the method must be a pure
    function of the instance. It writes ``__dict__`` directly, so it also
    works on frozen dataclasses.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value
