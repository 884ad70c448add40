"""Small applications for policy unit tests.

The frontier-reading runtimes index their profiles by task position, so a
test that hands ``configure`` a kernel must build the policy for an
application that runs that kernel there.
"""

from repro.simulator import Application, CollectiveOp, ComputeOp, PcontrolOp


def kernel_app(kernel, n_ranks=4, iterations=12):
    """Every rank runs ``kernel`` then an allreduce, once per iteration."""
    programs = [
        [
            op
            for it in range(iterations)
            for op in (ComputeOp(kernel, it), CollectiveOp(iteration=it),
                       PcontrolOp(it))
        ]
        for _ in range(n_ranks)
    ]
    return Application("kernel-app", programs, iterations=iterations)
