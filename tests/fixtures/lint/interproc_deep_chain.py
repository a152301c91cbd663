"""Known-leaky fixture: a 9-hop return chain written caller-first.

``leak`` comes first and the raw source last, so a solver that sweeps
the functions in file order learns one hop per sweep and needs ten
sweeps before ``leak``'s summary sees the raw data.
"""


def leak(network, node, dataset):
    network.send(node, "reducer", f0(dataset), kind="grad")


def f0(d):
    return f1(d)


def f1(d):
    return f2(d)


def f2(d):
    return f3(d)


def f3(d):
    return f4(d)


def f4(d):
    return f5(d)


def f5(d):
    return f6(d)


def f6(d):
    return f7(d)


def f7(d):
    return f8(d)


def f8(d):
    return d.X
