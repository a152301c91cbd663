"""Known-leaky fixture: definitions that share one qualified name.

``Table.rows`` has two ``@overload`` stubs before its implementation,
and ``Table.labels`` is a property with a setter.  Each definition gets
its own summary, so none overwrites another's.
"""

from typing import overload


class Table:
    def __init__(self, dataset):
        self.dataset = dataset
        self.cache = None

    @overload
    def rows(self, index: int) -> float: ...

    @overload
    def rows(self, index: slice) -> list: ...

    def rows(self, index):
        return self.dataset.X[index]

    @property
    def labels(self):
        return self.dataset.y

    @labels.setter
    def labels(self, value):
        self.cache = len(value)


def publish(network, node, table):
    network.send(node, "reducer", table.rows(0), kind="grad")
